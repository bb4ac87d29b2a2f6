package analysis

import (
	"fmt"
	"strings"

	"beamdyn/internal/obs"
)

// RPCacheStats aggregates the rp-solver cache instrumentation that
// internal/core attaches to every "reference/solve" span: tile-scratch
// reuse, radial-memo reuse and the cache-block tile shape. Solves is the
// number of instrumented spans seen; zero means the trace holds no host
// reference solves and there is nothing to report.
type RPCacheStats struct {
	Solves       int
	TileHits     float64
	TileSolves   float64
	MemoHits     float64
	MemoProbes   float64
	TileW, TileH int
}

// TileHitRate is the fraction of tile solves served from an
// already-gathered scratch arena (the cross-tile plane-load saving).
func (c RPCacheStats) TileHitRate() float64 {
	if c.TileSolves == 0 {
		return 0
	}
	return c.TileHits / c.TileSolves
}

// MemoHitRate is the fraction of radial-memo probes answered from cache.
func (c RPCacheStats) MemoHitRate() float64 {
	if c.MemoProbes == 0 {
		return 0
	}
	return c.MemoHits / c.MemoProbes
}

// RPCache extracts the rp cache-instrumentation totals from a trace.
func RPCache(events []obs.Event) RPCacheStats {
	var c RPCacheStats
	for _, e := range events {
		if e.Name != "reference/solve" {
			continue
		}
		probes, ok := attrFloat(e, "rp_memo_probe")
		if !ok {
			continue // span predates the cache instrumentation
		}
		c.Solves++
		c.MemoProbes += probes
		v, _ := attrFloat(e, "rp_memo_reuse")
		c.MemoHits += v
		v, _ = attrFloat(e, "rp_tile_hits")
		c.TileHits += v
		v, _ = attrFloat(e, "rp_tile_solves")
		c.TileSolves += v
		if w, ok := attrFloat(e, "rp_tile_w"); ok {
			c.TileW = int(w)
		}
		if h, ok := attrFloat(e, "rp_tile_h"); ok {
			c.TileH = int(h)
		}
	}
	return c
}

// RPCacheTable renders the aggregated rp cache statistics, "" when the
// trace carries none (so callers can print it unconditionally).
func RPCacheTable(c RPCacheStats) string {
	if c.Solves == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rp solver cache (%d solve(s), tile %dx%d):\n", c.Solves, c.TileW, c.TileH)
	fmt.Fprintf(&b, "  %-22s %12.0f / %.0f (%.1f%% reuse)\n",
		"tile scratch hits", c.TileHits, c.TileSolves, 100*c.TileHitRate())
	fmt.Fprintf(&b, "  %-22s %12.0f / %.0f (%.1f%% reuse)\n",
		"radial memo hits", c.MemoHits, c.MemoProbes, 100*c.MemoHitRate())
	return b.String()
}
