package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// parseMetrics reads a Prometheus text exposition into series → value.
// A series is the sample's name with its label block, as written.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta is after minus before for one series; a series absent before
// counts from zero.
func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}

// ratio is hits/(hits+misses) over the interval, NaN with no traffic.
func ratio(before, after map[string]float64, hits, misses string) float64 {
	h, m := delta(before, after, hits), delta(before, after, misses)
	if h+m == 0 {
		return math.NaN()
	}
	return h / (h + m)
}

// histogramQuantile estimates a quantile from the interval's growth of
// a cumulative-bucket histogram family (name without _bucket) carrying
// the given label, interpolating linearly inside the bucket as
// Prometheus does. The registry's latency buckets are coarse (1, 5,
// 25 ms ...), so this places a median, it does not resolve it.
func histogramQuantile(before, after map[string]float64, family, label string, q float64) (value float64, count int) {
	type bucket struct{ le, n float64 }
	var buckets []bucket
	prefix := family + "_bucket{" + label + ",le=\""
	for series := range after {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(rest, "\"}"), 64)
		if err != nil { // "+Inf"
			le = math.Inf(1)
		}
		buckets = append(buckets, bucket{le, delta(before, after, series)})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	if len(buckets) == 0 || buckets[len(buckets)-1].n == 0 {
		return math.NaN(), 0
	}
	total := buckets[len(buckets)-1].n
	rank := q * total
	lo, below := 0.0, 0.0
	for _, b := range buckets {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo, int(total)
			}
			return lo + (b.le-lo)*(rank-below)/(b.n-below), int(total)
		}
		lo, below = b.le, b.n
	}
	return lo, int(total)
}

// muxPattern is the endpoint label the RED middleware gives each route.
var muxPattern = [nRoutes]string{"/co", "/diff", "/history", "/timemap/link", "/timegate", "/remember"}

// serverLayerMetrics derives the per-layer numbers that only the server
// can count, from the growth of its /metrics across the measured
// interval.
func serverLayerMetrics(pl metrics, before, after map[string]float64) {
	if before == nil || after == nil {
		return
	}
	put := pl.put
	d := func(series string) float64 { return delta(before, after, series) }
	put("rcs.cache.hit_ratio", ratio(before, after, "rcs_cache_hits_total", "rcs_cache_misses_total"), "ratio",
		int(d("rcs_cache_hits_total")+d("rcs_cache_misses_total")))
	put("rcs.checkpoint_hits", d("rcs_checkpoint_hits_total"), "count", 0)
	put("snapshot.diffcache.hit_ratio", ratio(before, after, "snapshot_diffcache_hits_total", "snapshot_diffcache_misses_total"), "ratio",
		int(d("snapshot_diffcache_hits_total")+d("snapshot_diffcache_misses_total")))
	put("snapshot.diffcache.evictions", d("snapshot_diffcache_evictions_total"), "count", 0)
	put("snapshot.diffcache.bytes", after["snapshot_diffcache_bytes"], "B", 0)
	put("snapshot.diffcache.prewarm_computed", d("diffcache_prewarm_computed_total"), "count", 0)
	put("snapshot.diffcache.invalidated", d("snapshot_diffcache_invalidated_total"), "count", 0)
	put("lcs.anchor.hits", d("lcs_anchor_hits_total"), "count", 0)
	put("lcs.anchor.trimmed", d("lcs_anchor_trimmed_total"), "count", 0)
	put("lcs.anchor.fallbacks", d("lcs_anchor_fallbacks_total"), "count", 0)
	for r, pattern := range muxPattern {
		v, n := histogramQuantile(before, after, "http_request_duration", `endpoint="`+pattern+`"`, 0.5)
		put("obs.server_p50_ms."+route(r).String(), v*1000, "ms", n)
	}
}
