package main

import "strings"

// layerDef names a per-layer metric. BENCHMARK.json lists the same
// table; a single-workload run with -trace 1 reports every entry, zero
// where the workload does not exercise the layer.
type layerDef struct {
	name, unit string
	higher     bool // better when higher
}

var perLayerDefs = buildLayerDefs()

func buildLayerDefs() []layerDef {
	defs := []layerDef{
		{name: "loadgen.late_p99_ms", unit: "ms"}, {name: "loadgen.late_max_ms", unit: "ms"}, {name: "loadgen.cpu_share", unit: "cores"},
		{name: "loadgen.p99_ms", unit: "ms"}, {name: "loadgen.max_ms", unit: "ms"}, {name: "loadgen.opseq_hash", unit: "hash"},
		{name: "nethttp.overhead_p50_ms", unit: "ms"},
		{name: "obs.middleware_us", unit: "us"},
	}
	for _, r := range routeNames {
		defs = append(defs, layerDef{name: "obs.server_p50_ms." + r, unit: "ms"})
	}
	for _, r := range routeNames {
		defs = append(defs,
			layerDef{name: "snapshot.handler." + r + "_p50_us", unit: "us"},
			layerDef{name: "snapshot.handler." + r + "_allocs", unit: "count"},
			layerDef{name: "snapshot.handler." + r + "_bytes", unit: "B"})
	}
	defs = append(defs, layerDef{name: "snapshot.handler.all_p50_ms", unit: "ms"})
	for _, f := range []string{"checkout", "history", "revindex", "diffstream_hit", "diffstream_miss", "remembercontent"} {
		defs = append(defs, layerDef{name: "snapshot.facility." + f + "_p50_us", unit: "us"})
	}
	defs = append(defs,
		layerDef{name: "snapshot.archive_opens_per_co", unit: "count"},
		layerDef{name: "snapshot.diffcache.hit_ratio", unit: "ratio", higher: true}, layerDef{name: "snapshot.diffcache.evictions", unit: "count"},
		layerDef{name: "snapshot.diffcache.bytes", unit: "B"}, layerDef{name: "snapshot.diffcache.prewarm_computed", unit: "count"},
		layerDef{name: "snapshot.diffcache.invalidated", unit: "count"},
		layerDef{name: "store.archivepath_ns", unit: "ns"}, layerDef{name: "store.self_us_per_op", unit: "us"})
	for _, m := range storeMethods {
		defs = append(defs, layerDef{name: "store.calls_per_op." + m, unit: "count"})
	}
	defs = append(defs,
		layerDef{name: "rcs.cache.hit_ratio", unit: "ratio", higher: true}, layerDef{name: "rcs.cache.misses_per_request", unit: "ratio"},
		layerDef{name: "rcs.parse_miss_p50_us", unit: "us"},
		layerDef{name: "rcs.checkout_head_p50_us", unit: "us"}, layerDef{name: "rcs.checkout_old_p50_us", unit: "us"},
		layerDef{name: "rcs.deltas_applied_per_checkout", unit: "count"}, layerDef{name: "rcs.log_p50_us", unit: "us"},
		layerDef{name: "rcs.dates_p50_us", unit: "us"}, layerDef{name: "rcs.checkin_p50_us", unit: "us"},
		layerDef{name: "rcs.checkin_noop_p50_us", unit: "us"}, layerDef{name: "rcs.archive_bytes_per_rev", unit: "B"},
		layerDef{name: "rcs.checkpoint_hits", unit: "count", higher: true},
		layerDef{name: "textdiff.edscript_p50_us", unit: "us"}, layerDef{name: "textdiff.applyed_p50_us", unit: "us"},
		layerDef{name: "htmldoc.tokenize_us_per_kb", unit: "us"},
		layerDef{name: "htmldiff.prepare_p50_us", unit: "us"}, layerDef{name: "htmldiff.render_p50_us", unit: "us"},
		layerDef{name: "htmldiff.out_bytes_per_in_byte", unit: "ratio"},
		layerDef{name: "lcs.align_p50_us", unit: "us"}, layerDef{name: "lcs.anchor.hits", unit: "count", higher: true},
		layerDef{name: "lcs.anchor.trimmed", unit: "count", higher: true}, layerDef{name: "lcs.anchor.fallbacks", unit: "count"},
		layerDef{name: "memento.negotiate_ns", unit: "ns"}, layerDef{name: "memento.timemap_us_per_100", unit: "us"},
		layerDef{name: "memento.timegate_hops", unit: "count"},
		layerDef{name: "fsatomic.writefile_p50_us", unit: "us"}, layerDef{name: "fsatomic.writes_per_checkin", unit: "count"},
		layerDef{name: "webclient.get_p50_us", unit: "us"}, layerDef{name: "webclient.check_p50_us", unit: "us"},
		layerDef{name: "webclient.transport_calls_per_op", unit: "count"},
		layerDef{name: "aide.trackall_urls_per_s", unit: "1/s", higher: true}, layerDef{name: "aide.origin_requests_per_check", unit: "count"},
		layerDef{name: "aide.savestate_ms", unit: "ms"})
	return defs
}

// layerMetrics turns the traced pass's spans and samples into the
// per-layer metrics.
func layerMetrics(res *result, t *tracer, ls *layerSamples, allocs, bytesAlloc map[string][]float64, sib *siblings) {
	pl := res.PerLayer
	put := func(name string, v float64, unit string, n int) {
		if n > 0 {
			pl.put(name, v, unit, n)
		}
	}
	p50 := func(metricName, sample, unit string, scale float64) {
		xs := ls.vals[sample]
		put(metricName, median(xs)*scale, unit, len(xs))
	}
	for _, r := range routeNames {
		p50("snapshot.handler."+r+"_p50_us", "handler."+r, "us", 1)
		put("snapshot.handler."+r+"_allocs", median(allocs[r]), "count", len(allocs[r]))
		put("snapshot.handler."+r+"_bytes", median(bytesAlloc[r]), "B", len(bytesAlloc[r]))
	}
	p50("snapshot.handler.all_p50_ms", "handler.all", "ms", 1e-3)
	if all, ok := pl["snapshot.handler.all_p50_ms"]; ok {
		// What the socket, net/http and the client add to the handlers.
		if e2e, ok := res.EndToEnd["lat_p50_ms"]; ok {
			put("nethttp.overhead_p50_ms", e2e.Value-all.Value, "ms", all.N)
		}
	}
	p50("obs.middleware_us", "obs.middleware", "us", 1)
	for _, f := range []string{"checkout", "history", "revindex", "diffstream_hit", "diffstream_miss", "remembercontent"} {
		p50("snapshot.facility."+f+"_p50_us", "snapshot.facility."+f, "us", 1)
	}
	for _, name := range []string{"parse_miss", "checkout_head", "checkout_old", "log", "dates", "checkin", "checkin_noop"} {
		p50("rcs."+name+"_p50_us", "rcs."+name, "us", 1)
	}
	put("rcs.deltas_applied_per_checkout", sib.deltas/sib.checkouts, "count", int(sib.checkouts))
	p50("textdiff.edscript_p50_us", "textdiff.edscript", "us", 1)
	p50("textdiff.applyed_p50_us", "textdiff.applyed", "us", 1)
	put("htmldoc.tokenize_us_per_kb", sib.tokenizeUS/sib.tokenizedKB, "us", len(ls.vals["htmldoc.tokenize"]))
	p50("htmldiff.prepare_p50_us", "htmldiff.prepare", "us", 1)
	p50("htmldiff.render_p50_us", "htmldiff.render", "us", 1)
	put("htmldiff.out_bytes_per_in_byte", sib.diffOut/sib.diffIn, "ratio", len(ls.vals["htmldiff.render"]))
	p50("lcs.align_p50_us", "lcs.align", "us", 1)
	p50("memento.negotiate_ns", "memento.negotiate_ns", "ns", 1)
	put("memento.timemap_us_per_100", 100*sib.timemapUS/sib.timemapEntries, "us", len(ls.vals["memento.timemap"]))
	p50("fsatomic.writefile_p50_us", "fsatomic.writefile", "us", 1)
	put("fsatomic.writes_per_checkin", median(sib.writeSets), "count", len(sib.writeSets))
	p50("webclient.get_p50_us", "webclient.get", "us", 1)
	p50("webclient.check_p50_us", "webclient.check", "us", 1)
	p50("aide.trackall_urls_per_s", "aide.trackall_urls_per_s", "1/s", 1)
	put("aide.origin_requests_per_check", ls.count["aide.origin_requests"]/ls.count["aide.checks"], "count", int(ls.count["aide.checks"]))
	p50("aide.savestate_ms", "aide.savestate", "ms", 1e-3)

	// Counts and self time at the seams, from the spans themselves. A
	// leaf belongs to an operation when it hangs under the operation's
	// root, its handler or its pre-warm wait; which of the three a
	// pre-warm worker's call lands under is a race, so they count alike.
	// Leaves under the sibling spans are the benchmark's own calls.
	handlers, coHandlers, rememberHandlers := 0, 0, 0
	calls := map[string]float64{}
	var archivePathNS []float64
	var storeNS, opensPerCo, transportCalls float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, "handler.") {
			handlers++
			if s.Name == "handler.co" {
				coHandlers++
			}
			if s.Name == "handler.remember" {
				rememberHandlers++
			}
			continue
		}
		if s.Parent < 0 {
			continue
		}
		parent := t.spans[s.Parent].Name
		if !strings.HasPrefix(parent, "handler.") && !strings.HasPrefix(parent, "op.") && parent != "prewarm.wait" {
			continue
		}
		if method, ok := strings.CutPrefix(s.Name, "store."); ok {
			calls[method]++
			storeNS += float64(s.End - s.Start)
			if method == "ArchivePath" {
				archivePathNS = append(archivePathNS, float64(s.End-s.Start))
				if parent == "handler.co" {
					opensPerCo++
				}
			}
		}
		if s.Name == "webclient.roundtrip" && parent == "handler.remember" {
			transportCalls++
		}
	}
	put("snapshot.archive_opens_per_co", opensPerCo/float64(coHandlers), "count", coHandlers)
	put("store.archivepath_ns", median(archivePathNS), "ns", len(archivePathNS))
	put("store.self_us_per_op", storeNS/1e3/float64(handlers), "us", handlers)
	for _, m := range storeMethods {
		put("store.calls_per_op."+m, calls[m]/float64(handlers), "count", handlers)
	}
	put("webclient.transport_calls_per_op", transportCalls/float64(rememberHandlers), "count", rememberHandlers)
}
