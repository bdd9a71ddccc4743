package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"time"
)

// route is one kind of request in a traffic mix.
type route int

const (
	rCo route = iota
	rDiff
	rHistory
	rTimemap
	rTimegate
	rRemember
	nRoutes
)

var routeNames = [nRoutes]string{"co", "diff", "history", "timemap", "timegate", "remember"}

func (r route) String() string { return routeNames[r] }

// opKind refines a route by how its arguments are chosen.
type opKind int

const (
	opCoHead       opKind = iota // /co, newest revision
	opCoRandom                   // /co, seeded revision
	opDiffLatest                 // /diff, newest pair
	opDiffRandom                 // /diff, seeded pair
	opHistory                    // /history
	opTimemap                    // /timemap/link
	opTimegate                   // /timegate, seeded in-range Accept-Datetime, 302 not followed
	opRememberNew                // /remember of a page the driver has just changed
	opRememberSame               // /remember of an unchanged page (RCS no-op path)
	nOpKinds
)

var kindRoute = [nOpKinds]route{rCo, rCo, rDiff, rDiff, rHistory, rTimemap, rTimegate, rRemember, rRemember}

// op is one generated operation. The URL and seeded arguments are fixed
// here; arguments that depend on what has been archived so far (newest
// revision, next revision) are resolved when the request is sent.
type op struct {
	kind opKind
	url  int
	a, b int     // revisions for opCoRandom (a) and opDiffRandom (a < b)
	frac float64 // opTimegate: position of Accept-Datetime in the archived range
}

type weighted struct {
	kind   opKind
	weight int
}

// workload is one named traffic mix with its corpus and server flags.
type workload struct {
	name   string
	why    string
	corpus corpusSpec
	shards int
	args   []string // snapshotd flags beyond -addr, -data and -shards
	rate   float64  // open-loop arrivals per second, frozen at about half of capacity
	mix    []weighted
	// sweep marks the tracker workload: pages reach the archive through
	// snapshotd's own sweeps, the driver changes changeRate pages per
	// second, and the request mix reads recently changed pages.
	sweep      bool
	changeRate float64
	needOrigin bool
}

var workloads = []workload{
	{
		name: "browse_hot",
		why: "48 URLs x 8 revs fit every cache, so per-request cost (socket, net/http, obs, stat, Memento headers) is the time; " +
			"rcs and htmldiff gains must show no change. Open loop 1500/s.",
		corpus: corpusSpec{urls: 48, revs: 8, minKB: 1, maxKB: 16, users: 16, hosts: 1},
		shards: 1,
		args:   []string{"-sweep", "0"},
		rate:   1500,
		mix: []weighted{
			{opDiffLatest, 35}, {opCoHead, 25}, {opHistory, 15}, {opTimemap, 10}, {opTimegate, 15},
		},
	},
	{
		name: "archive_cold",
		why: "320 URLs (5x the parse cache) x 16 revs, 1-64 KB, random revs and pairs: reads re-parse ,v files, apply deltas " +
			"and miss the diff cache, so rcs and htmldiff own the time. Open loop 400/s.",
		corpus: corpusSpec{urls: 320, revs: 16, minKB: 1, maxKB: 64, users: 64, hosts: 1},
		shards: 4,
		args:   []string{"-sweep", "0"},
		rate:   400,
		mix: []weighted{
			{opCoRandom, 35}, {opHistory, 15}, {opTimemap, 10}, {opTimegate, 15}, {opDiffRandom, 25},
		},
	},
	{
		name: "checkin_mixed",
		why: "Writes beside reads: /remember of just-changed pages (fetch, ed-script delta, fsync+rename, ledger, control file, " +
			"cache invalidation, pre-warm) at 160/s; guards write cost against read-side gains.",
		corpus: corpusSpec{urls: 256, revs: 8, minKB: 1, maxKB: 32, users: 64, hosts: 1},
		shards: 4,
		args:   []string{"-sweep", "0"},
		rate:   160,
		mix: []weighted{
			{opRememberNew, 50}, {opRememberSame, 10}, {opDiffLatest, 15}, {opHistory, 10}, {opCoHead, 8}, {opTimegate, 7},
		},
		needOrigin: true,
	},
	{
		name: "track_sweep",
		why: "The tracker: 1024 registered URLs on 8 hosts swept back to back while 50 pages/s change; measures checks/s and " +
			"change-to-fetch lag at the origin, with a 120/s read leg on recently changed pages.",
		corpus:     corpusSpec{urls: 1024, revs: 0, minKB: 1, maxKB: 16, users: 64, hosts: 8},
		shards:     4,
		args:       []string{"-sweep", "1ms", "-sweep-workers", "2"},
		rate:       120,
		changeRate: 50,
		mix: []weighted{
			{opCoHead, 25}, {opHistory, 25}, {opDiffLatest, 25}, {opTimegate, 25},
		},
		sweep:      true,
		needOrigin: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// urlCycle hands out URLs in seeded random order, every URL once before
// any repeats. Requests are still spread evenly over the pages, but each
// route's sample of page sizes is the same from seed to seed, where
// independent draws would move a route's median by several percent.
type urlCycle struct {
	rng  *rand.Rand
	perm []int
	next int
}

func (c *urlCycle) draw(n int) int {
	if c.next == len(c.perm) {
		c.perm, c.next = c.rng.Perm(n), 0
	}
	c.next++
	return c.perm[c.next-1]
}

// genOps draws n operations from the mix. URLs come from a cycle per
// operation kind; on the tracker workload the URL is an index into the
// recently-changed list, resolved when the request is sent.
func genOps(w *workload, seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed ^ 0x6f707365)) // "opse": a stream of its own
	total := 0
	for _, m := range w.mix {
		total += m.weight
	}
	var cycles [nOpKinds]urlCycle
	for k := range cycles {
		cycles[k].rng = rng
	}
	ops := make([]op, n)
	revs := w.corpus.revs
	for i := range ops {
		pick := rng.Intn(total)
		kind := w.mix[len(w.mix)-1].kind
		for _, m := range w.mix {
			if pick < m.weight {
				kind = m.kind
				break
			}
			pick -= m.weight
		}
		o := op{kind: kind, url: cycles[kind].draw(w.corpus.urls)}
		switch kind {
		case opCoRandom:
			o.a = 1 + rng.Intn(revs)
		case opDiffRandom:
			o.a = 1 + rng.Intn(revs-1)
			o.b = o.a + 1 + rng.Intn(revs-o.a)
		case opTimegate:
			o.frac = rng.Float64()
		}
		ops[i] = o
	}
	return ops
}

// genArrivals draws open-loop due times: exponential gaps at rate per
// second until horizon.
func genArrivals(seed int64, rate float64, horizon time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x61727276)) // "arrv"
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= horizon {
			return due
		}
		due = append(due, d)
	}
}

// opseqHash fingerprints an operation sequence and its schedule: the
// same seed must give the same inputs, byte for byte.
func opseqHash(ops []op, due []time.Duration) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, o := range ops {
		put(uint64(o.kind))
		put(uint64(o.url))
		put(uint64(o.a))
		put(uint64(o.b))
		put(uint64(o.frac * (1 << 52)))
	}
	for _, d := range due {
		put(uint64(d))
	}
	return h.Sum64()
}
