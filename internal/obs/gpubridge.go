package obs

import "beamdyn/internal/gpusim"

// GPUBridge mirrors simulated-GPU launch metrics into a Registry, so the
// profiler counters the paper's Tables I-II are built from (warp execution
// efficiency, global load efficiency, cache hit rates, DRAM traffic)
// appear as labeled series next to the simulation's own telemetry. It
// implements gpusim.Recorder; attach it with Device.AttachRecorder. A
// bridge with a nil Reg is a no-op. A non-empty Trace (set by
// Observer.GPURecorder on a scoped observer) is kept as an exemplar on the
// worst recent gpu_launch_seconds observation.
type GPUBridge struct {
	Reg   *Registry
	Trace string
}

// launchSecondsBuckets span simulated kernel times from microseconds to
// the multi-second launches of the paper's largest grids.
var launchSecondsBuckets = ExpBuckets(1e-6, 4, 12)

// Record implements gpusim.Recorder.
func (b GPUBridge) Record(name string, m gpusim.Metrics) {
	if b.Reg == nil {
		return
	}
	kl := Label{"kernel", name}
	b.Reg.Counter("gpu_launches_total", kl).Inc()
	b.Reg.Counter("gpu_flops_total", kl).Add(m.Flops)
	b.Reg.Counter("gpu_thread_insts_total", kl).Add(m.ThreadInsts)
	b.Reg.Counter("gpu_dram_bytes_total", kl).Add(m.DRAMBytes())
	b.Reg.Gauge("gpu_time_seconds_total", kl).Add(m.Time)
	b.Reg.Gauge("gpu_warp_exec_efficiency", kl).Set(m.WarpExecutionEfficiency())
	b.Reg.Gauge("gpu_global_load_efficiency", kl).Set(m.GlobalLoadEfficiency())
	b.Reg.Gauge("gpu_l1_hit_rate", kl).Set(m.L1HitRate())
	b.Reg.Gauge("gpu_l2_hit_rate", kl).Set(m.L2HitRate())
	h := b.Reg.Histogram("gpu_launch_seconds", launchSecondsBuckets, kl)
	if b.Trace != "" {
		h.ObserveExemplar(m.Time, b.Trace, "")
	} else {
		h.Observe(m.Time)
	}
}

// RecordReplay implements gpusim.ReplayRecorder: the replay engine's own
// statistics — warp-instruction slots replayed and how often each
// streaming fast path fired — join the registry as gpu_replay_* counters,
// so a snapshot shows whether a workload's access patterns actually hit
// the MRU and presorted-coalesce paths the engine is built around.
func (b GPUBridge) RecordReplay(name string, s gpusim.ReplayStats) {
	if b.Reg == nil {
		return
	}
	kl := Label{"kernel", name}
	b.Reg.Counter("gpu_replay_warp_insts_total", kl).Add(s.WarpInsts)
	b.Reg.Counter("gpu_replay_mru_hits_total", kl).Add(s.MRUHits)
	// Sorts performed: one per out-of-order warp memory instruction, or
	// one per out-of-order footprint group of nine instructions.
	b.Reg.Counter("gpu_replay_sort_fallbacks_total", kl).Add(s.SortFallbacks)
	b.Reg.Counter("gpu_replay_line_shortcircuits_total", kl).Add(s.LineShortCircuits)
}
