package rcs

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// bigText fabricates a page of about n bytes, changed slightly by step,
// with no '@' in it.
func bigText(n, step int) string {
	var sb strings.Builder
	for l := 0; sb.Len() < n; l++ {
		if l == step {
			fmt.Fprintf(&sb, "line %d changed at step %d\n", l, step)
			continue
		}
		fmt.Fprintf(&sb, "stable line %d of a long page\n", l)
	}
	return sb.String()
}

// archiveOf checks in revs revisions of about size bytes each and returns
// the archive and its file contents.
func archiveOf(t testing.TB, size, revs int) (*Archive, string) {
	t.Helper()
	a := Open(t.TempDir()+"/page,v", nil)
	for i := 0; i < revs; i++ {
		if _, _, err := a.Checkin(bigText(size, i), "u", "poll"); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(a.Path())
	if err != nil {
		t.Fatal(err)
	}
	return a, string(raw)
}

// bytesPerRun reports the heap bytes fn allocates per call.
func bytesPerRun(runs int, fn func()) uint64 {
	fn() // warm up, like testing.AllocsPerRun
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestCachedHeadCheckoutAllocs: a head checkout served from the parse
// cache returns the stored text, so it allocates no more than the os.Stat
// that validates the cache entry, whatever the size of the page.
func TestCachedHeadCheckoutAllocs(t *testing.T) {
	for _, size := range []int{256, 64 << 10} {
		a, _ := archiveOf(t, size, 3)
		want := bigText(size, 2)
		checkout := func() {
			if got, err := a.Checkout(""); err != nil || got != want {
				t.Fatalf("Checkout = (%d bytes, %v)", len(got), err)
			}
		}
		stat := testing.AllocsPerRun(50, func() { os.Stat(a.Path()) })
		if allocs := testing.AllocsPerRun(50, checkout); allocs > stat {
			t.Errorf("%d-byte head: Checkout allocates %.0f times, os.Stat alone %.0f", size, allocs, stat)
		}
		if b := bytesPerRun(50, checkout); b > 1024 {
			t.Errorf("%d-byte head: Checkout allocates %d bytes per call", size, b)
		}
	}
}

// TestParseAllocsScaleWithRevisions: parsing an archive whose strings
// hold no @@ allocates per revision, never per byte — the same count for
// 256-byte and 64 KB pages.
func TestParseAllocsScaleWithRevisions(t *testing.T) {
	const revs = 8
	var counts []float64
	for _, size := range []int{256, 64 << 10} {
		_, src := archiveOf(t, size, revs)
		counts = append(counts, testing.AllocsPerRun(20, func() {
			if _, err := parseArchive(src); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[1] > counts[0] {
		t.Errorf("parse allocations grow with page size: %.0f for 256 B pages, %.0f for 64 KB", counts[0], counts[1])
	}
	if limit := float64(4*revs + 16); counts[0] > limit {
		t.Errorf("parse of %d revisions allocates %.0f times, want at most %.0f", revs, counts[0], limit)
	}
}

// BenchmarkParseArchive parses a 16-revision archive of 16 KB pages from
// memory — the cost a parse-cache miss pays after the read.
func BenchmarkParseArchive(b *testing.B) {
	_, src := archiveOf(b, 16<<10, 16)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := parseArchive(src); err != nil {
			b.Fatal(err)
		}
	}
}
