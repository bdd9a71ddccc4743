package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed operation.
type sample struct {
	route route
	// fresh marks a /remember that produced a new revision.
	fresh bool
	ok    bool
	// due is when the request was due (open loop) or sent (closed
	// loop), as an offset from the phase start.
	due time.Duration
	// lat is completion minus due: in an open loop a stall charges every
	// request queued behind it, not just the one that hit it.
	lat time.Duration
	// late is how long after its due time the generator released the
	// request (open loop only): the generator's own error.
	late time.Duration
}

// doer performs one operation on the given worker's connection and
// reports whether the response was correct.
type doer func(worker int, o *op) (ok, fresh bool)

// openLoop releases ops[i] at start+due[i] from one dispatcher
// goroutine to `workers` workers, each owning one connection. The queue
// holds the whole schedule, so the dispatcher never waits on a worker.
func openLoop(ops []op, due []time.Duration, workers int, do doer) []sample {
	type ticket struct {
		i    int
		late time.Duration
	}
	queue := make(chan ticket, len(due)) // whole schedule: release never blocks
	per := make([][]sample, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := range queue {
				o := &ops[t.i%len(ops)]
				ok, fresh := do(w, o)
				per[w] = append(per[w], sample{
					route: kindRoute[o.kind], fresh: fresh, ok: ok,
					due: due[t.i], lat: time.Since(start) - due[t.i], late: t.late,
				})
			}
		}(w)
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		queue <- ticket{i, time.Since(start) - d}
	}
	close(queue)
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// closedLoop runs `workers` clients back to back for d, drawing
// operations from ops starting at index from.
func closedLoop(ops []op, from int, workers int, d time.Duration, do doer) []sample {
	per := make([][]sample, workers)
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				sent := time.Since(start)
				if sent >= d {
					return
				}
				o := &ops[int(next.Add(1)-1)%len(ops)]
				ok, fresh := do(w, o)
				per[w] = append(per[w], sample{
					route: kindRoute[o.kind], fresh: fresh, ok: ok,
					due: sent, lat: time.Since(start) - sent,
				})
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}
