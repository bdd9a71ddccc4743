package rcs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"aide/internal/textdiff"
)

// referenceAtString is the byte-at-a-time @-string unescaper the parser
// used before strings without @@ became substrings of the source. It is
// the oracle FuzzAtString holds parser.atString to.
func referenceAtString(p *parser) (string, error) {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '@' {
		return "", errors.New("missing opening @")
	}
	p.pos++
	var sb strings.Builder
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c != '@' {
			sb.WriteByte(c)
			p.pos++
			continue
		}
		if p.pos+1 < len(p.src) && p.src[p.pos+1] == '@' {
			sb.WriteByte('@')
			p.pos += 2
			continue
		}
		p.pos++
		return sb.String(), nil
	}
	return "", errors.New("unterminated @-string")
}

// referenceCheckout rebuilds rev the way checkout did before full-text
// revisions were returned as stored: split the nearest full text into
// lines, apply every delta down to rev, re-join, and drop the final
// newline of a noeol revision.
func referenceCheckout(f *archiveFile, rev string) (string, error) {
	idx := -1
	for i, r := range f.revs {
		if r.Num == rev {
			idx = i
			break
		}
	}
	if idx < 0 {
		return "", ErrNoRevision
	}
	start := 0
	for i := idx; i >= 1; i-- {
		if f.revs[i].checkpoint {
			start = i
			break
		}
	}
	lines := textdiff.Lines(f.revs[start].text)
	for i := start + 1; i <= idx; i++ {
		var err error
		if lines, err = textdiff.ApplyEd(lines, f.revs[i].text); err != nil {
			return "", err
		}
	}
	text := textdiff.Join(lines)
	if f.revs[idx].noEOL {
		text = strings.TrimSuffix(text, "\n")
	}
	return text, nil
}

// FuzzAtString holds the substring-returning unescaper to the reference:
// the same string, the same error-or-not, and the same end position.
func FuzzAtString(f *testing.F) {
	for _, s := range []string{"@@", "@x@", " \n@a@@b@tail", "@@@@@", "@@@", "@abc", "x@", "@a@@@", "@\n@@\n@"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, want := &parser{src: src}, &parser{src: src}
		gs, gerr := got.atString()
		ws, werr := referenceAtString(want)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("atString(%q) err = %v, reference err = %v", src, gerr, werr)
		}
		if gerr != nil {
			return
		}
		if gs != ws || got.pos != want.pos {
			t.Fatalf("atString(%q) = %q at %d, reference %q at %d", src, gs, got.pos, ws, want.pos)
		}
	})
}

// TestFullTextCheckoutMatchesReference: the head and a checkpoint check
// out byte-identical to the split/apply/join path for every shape of
// text the flags can describe — with and without a final newline, empty,
// and a lone newline — including noeol flags that disagree with the
// text, which only a hand-made archive can hold.
func TestFullTextCheckoutMatchesReference(t *testing.T) {
	texts := []string{"", "\n", "\n\n", "a", "a\n", "a\nb", "a\nb\n", "a\n\n", "@@\n@"}
	date := time.Date(1996, 1, 2, 3, 4, 5, 0, time.UTC)
	for _, text := range texts {
		for _, noEOL := range []bool{false, true} {
			f := &archiveFile{revs: []revEntry{
				{Revision: Revision{Num: "1.3", Date: date}, noEOL: noEOL, text: text},
				{Revision: Revision{Num: "1.2", Date: date}, text: "d1 1\n"},
				{Revision: Revision{Num: "1.1", Date: date}, noEOL: noEOL, checkpoint: true, text: text},
			}}
			for _, rev := range []string{"1.3", "1.1"} {
				name := fmt.Sprintf("%q/noeol=%v/%s", text, noEOL, rev)
				want, err := referenceCheckout(f, rev)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				got, err := f.checkout(rev)
				if err != nil || got != want {
					t.Errorf("%s: checkout = (%q, %v), reference %q", name, got, err, want)
				}
			}
		}
	}

	// Through the public API, where Checkin sets noeol itself.
	for _, text := range texts {
		a, clock := newTestArchive(t)
		a.CheckpointEvery = 1 // every superseded head stays full text
		for _, body := range []string{text, text + "x\n", text} {
			clock.Advance(time.Hour)
			if _, _, err := a.Checkin(body, "u", "l"); err != nil {
				t.Fatal(err)
			}
		}
		f, err := a.loadReadOnly()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range f.revs {
			want, err := referenceCheckout(f, r.Num)
			if err != nil {
				t.Fatalf("%q %s: reference: %v", text, r.Num, err)
			}
			got, err := a.Checkout(r.Num)
			if err != nil || got != want {
				t.Errorf("%q %s: Checkout = (%q, %v), reference %q", text, r.Num, got, err, want)
			}
		}
	}
}
