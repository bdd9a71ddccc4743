package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"sync"
	"time"

	"aide/internal/simclock"
	"aide/internal/snapshot"
	"aide/internal/websim"
)

// corpusSpec sizes a workload's page set.
type corpusSpec struct {
	urls, revs   int // revs seeded in-process before snapshotd starts
	minKB, maxKB float64
	users        int // URL i belongs to user i % users
	hosts        int // origin listeners; URL i lives on host i % hosts
}

// bytesPerWord is websim.Filler's mean word length plus its separator,
// used to turn a target page size into a word count.
const bytesPerWord = 8.9

// corpus is the generated page set and the driver's model of what the
// archive must hold: every check is made against it, never against
// something the server said earlier.
type corpus struct {
	spec  corpusSpec
	urls  []string
	users []string
	gens  []func(step int) string

	mu sync.Mutex
	// revLen[u][k] and revHash[u][k] describe the body archived as
	// revision 1.(k+1) of URL u; revVer is the page version it carried.
	revLen  [][]int
	revHash [][]uint64
	revVer  [][]int
	// inputBytes sums the bodies checked in, the denominator of
	// store_bytes_per_input_byte.
	inputBytes int64
}

// newCorpus derives the page set from the seed. Sizes are log-uniform
// between minKB and maxKB but stratified: every seed gets the same set
// of sizes in a different order, so the size mix (which sets parse,
// delta and diff cost) does not drift from seed to seed.
func newCorpus(spec corpusSpec, seed int64, originPorts []int) *corpus {
	c := &corpus{spec: spec}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(spec.urls)
	for i := 0; i < spec.urls; i++ {
		host := i % spec.hosts
		if len(originPorts) == 0 {
			// No listeners: websim's in-memory transport addresses the
			// simulated host directly.
			c.urls = append(c.urls, fmt.Sprintf("http://h%d.bench/u%04d.html", host, i))
		} else {
			c.urls = append(c.urls, fmt.Sprintf("http://127.0.0.1:%d/h%d.bench/u%04d.html", originPorts[host], host, i))
		}
		kb := spec.minKB * math.Pow(spec.maxKB/spec.minKB, (float64(perm[i])+0.5)/float64(spec.urls))
		words := int(kb * 1024 / bytesPerWord)
		c.gens = append(c.gens, websim.SizedChangeGenerator(words, 40, seed<<20+int64(i)))
	}
	for u := 0; u < spec.users; u++ {
		c.users = append(c.users, fmt.Sprintf("user%03d@bench", u))
	}
	c.revLen = make([][]int, spec.urls)
	c.revHash = make([][]uint64, spec.urls)
	c.revVer = make([][]int, spec.urls)
	return c
}

func (c *corpus) user(u int) string { return c.users[u%len(c.users)] }

// site and path locate URL u on the simulated web behind the origin.
func (c *corpus) site(u int) string { return fmt.Sprintf("h%d.bench", u%c.spec.hosts) }
func (c *corpus) path(u int) string { return fmt.Sprintf("/u%04d.html", u) }

// marker is the token only version v of URL u contains. One word, so
// HtmlDiff's word-level merge cannot split it.
func marker(u, v int) string { return fmt.Sprintf("mk-u%04d-v%d", u, v) }

// body generates version v (1-based) of URL u.
func (c *corpus) body(u, v int) string {
	const head = "<HTML><BODY>\n"
	b := c.gens[u](v)
	return head + "<P>Bench marker " + marker(u, v) + " here.</P>\n" + strings.TrimPrefix(b, head)
}

func hashBody(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// noteArchived records that body (version v of URL u) became the next
// revision of u, and returns that revision's number.
func (c *corpus) noteArchived(u, v int, body string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.revLen[u] = append(c.revLen[u], len(body))
	c.revHash[u] = append(c.revHash[u], hashBody(body))
	c.revVer[u] = append(c.revVer[u], v)
	c.inputBytes += int64(len(body))
	return len(c.revLen[u])
}

// revCount is the number of revisions the model says URL u has.
func (c *corpus) revCount(u int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.revLen[u])
}

// rev returns the model's record of revision 1.k of URL u.
func (c *corpus) rev(u, k int) (ver, length int, hash uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.revVer[u][k-1], c.revLen[u][k-1], c.revHash[u][k-1]
}

// revDate is when seeded revision k was checked in on the simulated
// clock: one day apart from simclock.Epoch.
func revDate(k int) time.Time { return simclock.Epoch.Add(time.Duration(k-1) * 24 * time.Hour) }

// seedWorkers overlaps the fsync waits of independent check-ins; the
// CPU side of a check-in is about a third of its wall time.
const seedWorkers = 8

// seedArchive checks spec.revs versions of every URL into a fresh
// facility at dir through RememberContent, one simulated day apart.
// Only the last revision is checked in under the owning user, so each
// user's control file is written once per URL, not once per revision.
func (c *corpus) seedArchive(dir string, shards int) error {
	if c.spec.revs == 0 {
		return nil
	}
	clock := simclock.New(time.Time{})
	fac, err := snapshot.NewSharded(dir, shards, nil, clock)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for v := 1; v <= c.spec.revs; v++ {
		var wg sync.WaitGroup
		errs := make([]error, seedWorkers)
		for w := 0; w < seedWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for u := w; u < c.spec.urls; u += seedWorkers {
					user := ""
					if v == c.spec.revs {
						user = c.user(u)
					}
					body := c.body(u, v)
					res, err := fac.RememberContent(ctx, user, c.urls[u], body)
					if err == nil && res.Rev != fmt.Sprintf("1.%d", v) {
						err = fmt.Errorf("seeding %s: got revision %s, want 1.%d", c.urls[u], res.Rev, v)
					}
					if err != nil {
						errs[w] = err
						return
					}
					c.noteArchived(u, v, body)
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		clock.Advance(24 * time.Hour)
	}
	return nil
}
