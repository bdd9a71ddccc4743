package rcs

import (
	"sort"
	"testing"
	"time"
)

// FuzzParseArchive throws arbitrary bytes at the archive parser: it must
// reject or accept without panicking, anything it accepts must serialize
// and re-parse to the same archive in every field, and every revision
// must check out exactly as the split/apply/join reference rebuilds it.
func FuzzParseArchive(f *testing.F) {
	valid := serializeArchive(&archiveFile{revs: []revEntry{{
		Revision: Revision{Num: "1.3", Date: mustDate("1995.11.03.12.00.00"), Author: "douglis", Log: "l@@g"},
		text:     "head text\nno newline",
		noEOL:    true,
	}, {
		Revision:   Revision{Num: "1.2", Date: mustDate("1995.10.01.12.00.00"), Author: "ball"},
		text:       "checkpoint @ text\n",
		checkpoint: true,
	}, {
		Revision: Revision{Num: "1.1", Date: mustDate("1995.09.29.12.00.00"), Author: "tball"},
		text:     "d1 1\na1 1\nold line\n",
	}}, locks: map[string]string{"douglis": "1.3"}})
	seeds := []string{
		"",
		valid,
		"head 1.1;",
		"head\t1.1;\naccess;\nlocks; strict;\ncomment @# @;\n\n1.1\ndate 1995.01.01.00.00.00;\tauthor u;\tstate Exp;\nnext\t;\n\n\ndesc\n@@\n\n\n1.1\nlog\n@@\ntext\n@x@\n",
		"head\t1.1;\nlocks a!b:1.1 :1.1; strict;\n1.1\ndate 1995.01.01.00.00.00.5;\tauthor ;\tnoeol;\nnext\t;\ndesc\n@@\n1.1\nlog\n@@@@\ntext\n@x\n@\n",
		"garbage @ everywhere @@",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		af, err := parseArchive(src)
		if err != nil {
			return
		}
		round, err := parseArchive(serializeArchive(af))
		if err != nil {
			t.Fatalf("accepted archive did not round-trip: %v", err)
		}
		assertSameArchive(t, round, canonicalArchive(af))
		for _, r := range af.revs {
			want, werr := referenceCheckout(af, r.Num)
			got, gerr := af.checkout(r.Num)
			if (werr == nil) != (gerr == nil) || got != want {
				t.Fatalf("checkout %s = (%q, %v), reference (%q, %v)", r.Num, got, gerr, want, werr)
			}
		}
	})
}

// canonicalArchive is f as the serializer spells it: authors and lock
// holders pass through quoteWord (the empty word becomes "unknown"), and
// dates keep whole seconds, since a parsed date may carry a fraction the
// on-disk layout has no field for. Lock holders that quote to the same
// word keep the revision the serializer writes last (sorted order).
func canonicalArchive(f *archiveFile) *archiveFile {
	c := &archiveFile{revs: append([]revEntry(nil), f.revs...)}
	for i := range c.revs {
		c.revs[i].Author = quoteWord(c.revs[i].Author)
		c.revs[i].Date = c.revs[i].Date.Truncate(time.Second)
	}
	if f.locks != nil {
		users := make([]string, 0, len(f.locks))
		for u := range f.locks {
			users = append(users, u)
		}
		sort.Strings(users)
		c.locks = map[string]string{}
		for _, u := range users {
			c.locks[quoteWord(u)] = f.locks[u]
		}
	}
	return c
}

// assertSameArchive fails unless got and want agree in every field the
// format stores.
func assertSameArchive(t *testing.T, got, want *archiveFile) {
	t.Helper()
	if len(got.revs) != len(want.revs) {
		t.Fatalf("rev count %d, want %d", len(got.revs), len(want.revs))
	}
	for i, g := range got.revs {
		w := want.revs[i]
		if g.Num != w.Num || !g.Date.Equal(w.Date) || g.Author != w.Author || g.Log != w.Log ||
			g.text != w.text || g.noEOL != w.noEOL || g.checkpoint != w.checkpoint {
			t.Fatalf("rev %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if len(got.locks) != len(want.locks) {
		t.Fatalf("locks %v, want %v", got.locks, want.locks)
	}
	for u, r := range want.locks {
		if got.locks[u] != r {
			t.Fatalf("locks %v, want %v", got.locks, want.locks)
		}
	}
}

func mustDate(s string) time.Time {
	parsed, err := time.Parse(dateFormat, s)
	if err != nil {
		panic(err)
	}
	return parsed
}
