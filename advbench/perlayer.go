package main

import (
	"strings"
	"time"

	"beamdyn/internal/gpusim"
)

// launchNames are the simulated-GPU launches reported one by one; a
// launch "a/b" is reported as gpusim.a-b.
var launchNames = []string{"predictive/clustered", "predictive/adaptive", "twophase/uniform", "twophase/refine"}

// perLayer aggregates the traced steps into the per-layer metrics. Times
// and allocations are means per traced step over every traced step;
// count-derived figures (launches, fallback entries, simulated time, replay
// and cache ratios) cover only the first identitySteps traced steps, so
// they are identical across runs of one seed whatever the run's length.
// Layers a workload does not run report 0. setupFallback is the safety-net
// entries of the set-up's kernel steps; chk supplies the checked steps'
// simulated time and deviation from the reference.
func perLayer(w workload, traced []stepTrace, bare []float64, setupFallback int, chk *checker) map[string]value {
	n := float64(len(traced))
	mean := func(f func(st *stepTrace) time.Duration) float64 {
		var s time.Duration
		for i := range traced {
			s += f(&traced[i])
		}
		return s.Seconds() / n
	}
	first := traced[:min(len(traced), identitySteps)]
	k := float64(len(first))

	var advance []float64
	var potAllocs, particleAlloc float64
	var launchWall, launchSim = map[string]time.Duration{}, map[string]float64{}
	var wallAll time.Duration
	var warpInstsAll uint64
	for i := range traced {
		st := &traced[i]
		advance = append(advance, st.Advance.Seconds())
		potAllocs += float64(st.PotMallocs)
		particleAlloc += float64(st.AdvanceAlloc-st.PotAlloc) / 1e6
		for _, l := range st.Launches {
			launchWall[l.Name] += l.Wall
			wallAll += l.Wall
		}
		warpInstsAll += st.Replay.WarpInsts
	}
	var fallback, launches int
	var m gpusim.Metrics
	var replay gpusim.ReplayStats
	var memoHits, memoProbes, tileHits, tileSolves uint64
	for i := range first {
		st := &first[i]
		fallback += st.Fallback
		launches += len(st.Launches)
		m.Add(st.Metrics)
		for _, l := range st.Launches {
			launchSim[l.Name] += l.Sim
		}
		replay.WarpInsts += st.Replay.WarpInsts
		replay.MRUHits += st.Replay.MRUHits
		replay.SortFallbacks += st.Replay.SortFallbacks
		memoHits += st.Solve.MemoHits
		memoProbes += st.Solve.MemoProbes
		tileHits += st.Solve.TileHits
		tileSolves += st.Solve.TileSolves
	}

	potentials := mean(func(st *stepTrace) time.Duration { return st.Potentials })
	out := map[string]value{
		"core.advance_s":                  {mean(func(st *stepTrace) time.Duration { return st.Advance }), "s"},
		"trace_overhead_ratio":            {ratio(quantile(advance, 50), quantile(bare, 50)), "ratio"},
		"core.particle_stages_s":          {mean(func(st *stepTrace) time.Duration { return st.Advance - st.Potentials }), "s"},
		"core.particle_alloc_mb_per_step": {particleAlloc / n, "MB"},
		"grid.deposit_s":                  {mean(func(st *stepTrace) time.Duration { return st.Deposit }), "s"},
		"grid.interp_s":                   {mean(func(st *stepTrace) time.Duration { return st.Interp }), "s"},
		"particles.push_s":                {mean(func(st *stepTrace) time.Duration { return st.Push }), "s"},
		"retard.solve_s":                  {0, "s"},
		"retard.memo_hit_ratio":           {ratio(float64(memoHits), float64(memoProbes)), "ratio"},
		"retard.tile_reuse_ratio":         {ratio(float64(tileHits), float64(tileSolves)), "ratio"},
		"kernels.step_s":                  {0, "s"},
		"kernels.predict_s":               {mean(func(st *stepTrace) time.Duration { return seconds(st.Host.Predict) }), "s"},
		"kernels.cluster_s":               {mean(func(st *stepTrace) time.Duration { return seconds(st.Host.Clustering) }), "s"},
		"kernels.train_s":                 {mean(func(st *stepTrace) time.Duration { return seconds(st.Host.Train) }), "s"},
		"kernels.fallback_entries":        {float64(fallback) / k, "count"},
		"kernels.setup_fallback_entries":  {float64(setupFallback), "count"},
		"kernels.launches_per_step":       {float64(launches) / k, "count"},
		"kernels.allocs_per_step":         {0, "count"},
		"gpusim.warp_insts_per_step":      {float64(replay.WarpInsts) / k, "count"},
		"gpusim.ns_per_warp_inst":         {ratio(float64(wallAll.Nanoseconds()), float64(warpInstsAll)), "ns"},
		"gpusim.mru_hit_ratio":            {ratio(float64(replay.MRUHits), float64(m.L1Accesses+m.L2Accesses)), "ratio"},
		"gpusim.sort_fallback_ratio":      {ratio(float64(replay.SortFallbacks), float64(replay.WarpInsts)), "ratio"},
		"gpusim.l1_hit_rate":              {m.L1HitRate(), "ratio"},
		"gpusim.warp_exec_eff":            {m.WarpExecutionEfficiency(), "ratio"},
		"sim_s_per_step":                  {chk.simSecPerStep(), "s"},
		"pot_rel_err":                     {chk.relErr, "ratio"},
	}
	if w.Kernel == "reference" {
		out["retard.solve_s"] = value{potentials, "s"}
	} else {
		out["kernels.step_s"] = value{potentials, "s"}
		out["kernels.allocs_per_step"] = value{potAllocs / n, "count"}
	}
	for _, name := range launchNames {
		key := "gpusim." + strings.ReplaceAll(name, "/", "-")
		out[key+".wall_s"] = value{launchWall[name].Seconds() / n, "s"}
		out[key+".sim_s"] = value{launchSim[name] / k, "s"}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func seconds(s float64) time.Duration { return time.Duration(s * 1e9) }
