// Package textdiff provides line-oriented differencing in the style of
// UNIX diff (Hunt–McIlroy): hunks, unified output for humans, and
// RCS-style "diff -n" ed scripts, which are the delta representation used
// by the internal/rcs archive. It also applies ed scripts, which is how
// the archive reconstructs old revisions from the head.
package textdiff

import (
	"fmt"
	"strconv"
	"strings"

	"aide/internal/lcs"
)

// OpKind classifies a hunk.
type OpKind int

// Hunk kinds. Equal hunks are present so that the hunk list fully covers
// both inputs.
const (
	Equal OpKind = iota
	Delete
	Insert
	Replace
)

// String returns a short mnemonic for the kind.
func (k OpKind) String() string {
	switch k {
	case Equal:
		return "equal"
	case Delete:
		return "delete"
	case Insert:
		return "insert"
	case Replace:
		return "replace"
	}
	return "unknown"
}

// Hunk describes one region of the alignment: lines ALo:AHi of the old
// text correspond to lines BLo:BHi of the new text (half-open, 0-based).
// For Equal hunks the two ranges have equal length and identical content;
// for Delete hunks the B range is empty; for Insert hunks the A range is
// empty; Replace hunks have both non-empty.
type Hunk struct {
	Kind     OpKind
	ALo, AHi int
	BLo, BHi int
}

// Lines splits text into lines, dropping the line terminators. An empty
// string yields no lines. A trailing newline does not create a final empty
// line; callers that must round-trip exactly should track the trailing
// newline separately (see HasTrailingNewline).
func Lines(text string) []string {
	if text == "" {
		return nil
	}
	text = strings.TrimSuffix(text, "\n")
	return strings.Split(text, "\n")
}

// HasTrailingNewline reports whether text ends in a newline. Join(Lines(t))
// reconstructs t exactly only when this is true (or t is empty).
func HasTrailingNewline(text string) bool {
	return strings.HasSuffix(text, "\n")
}

// Join reassembles lines into a text with a newline after every line.
func Join(lines []string) string {
	if len(lines) == 0 {
		return ""
	}
	n := len(lines)
	for _, l := range lines {
		n += len(l)
	}
	var sb strings.Builder
	sb.Grow(n)
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Diff computes the hunks aligning a with b. The returned hunks cover
// both inputs completely and alternate between Equal and non-Equal kinds.
func Diff(a, b []string) []Hunk {
	pairs := lcs.Strings(a, b)
	var hunks []Hunk
	ai, bi := 0, 0
	flush := func(aHi, bHi int) {
		if ai == aHi && bi == bHi {
			return
		}
		k := Replace
		switch {
		case ai == aHi:
			k = Insert
		case bi == bHi:
			k = Delete
		}
		hunks = append(hunks, Hunk{Kind: k, ALo: ai, AHi: aHi, BLo: bi, BHi: bHi})
		ai, bi = aHi, bHi
	}
	for i := 0; i < len(pairs); {
		p := pairs[i]
		flush(p.AIdx, p.BIdx)
		// Extend a run of consecutive matches into one Equal hunk.
		j := i + 1
		for j < len(pairs) && pairs[j].AIdx == pairs[j-1].AIdx+1 && pairs[j].BIdx == pairs[j-1].BIdx+1 {
			j++
		}
		n := j - i
		hunks = append(hunks, Hunk{Kind: Equal, ALo: ai, AHi: ai + n, BLo: bi, BHi: bi + n})
		ai += n
		bi += n
		i = j
	}
	flush(len(a), len(b))
	return hunks
}

// Stats returns the number of inserted and deleted lines implied by hunks.
func Stats(hunks []Hunk) (added, deleted int) {
	for _, h := range hunks {
		if h.Kind == Equal {
			continue
		}
		deleted += h.AHi - h.ALo
		added += h.BHi - h.BLo
	}
	return added, deleted
}

// Unified renders hunks in unified diff format with the given number of
// context lines, using aName and bName in the header. It returns the empty
// string when the inputs are identical.
func Unified(aName, bName string, a, b []string, context int) string {
	hunks := Diff(a, b)
	if isAllEqual(hunks) {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s\n+++ %s\n", aName, bName)
	// Group non-equal hunks whose gaps are within 2*context lines.
	groups := groupHunks(hunks, context)
	for _, g := range groups {
		aLo, aHi := g[0].ALo, g[len(g)-1].AHi
		bLo, bHi := g[0].BLo, g[len(g)-1].BHi
		// Widen by context within bounds.
		cALo, cBLo := maxInt(0, aLo-context), maxInt(0, bLo-context)
		ext := minInt(aLo-cALo, bLo-cBLo)
		cALo, cBLo = aLo-ext, bLo-ext
		cAHi := minInt(len(a), aHi+context)
		cBHi := minInt(len(b), bHi+context)
		ext = minInt(cAHi-aHi, cBHi-bHi)
		cAHi, cBHi = aHi+ext, bHi+ext
		fmt.Fprintf(&sb, "@@ -%s +%s @@\n", rangeSpec(cALo, cAHi), rangeSpec(cBLo, cBHi))
		// Leading context.
		for i := cALo; i < aLo; i++ {
			sb.WriteString(" " + a[i] + "\n")
		}
		for _, h := range g {
			switch h.Kind {
			case Equal:
				for i := h.ALo; i < h.AHi; i++ {
					sb.WriteString(" " + a[i] + "\n")
				}
			default:
				for i := h.ALo; i < h.AHi; i++ {
					sb.WriteString("-" + a[i] + "\n")
				}
				for i := h.BLo; i < h.BHi; i++ {
					sb.WriteString("+" + b[i] + "\n")
				}
			}
		}
		// Trailing context.
		for i := aHi; i < cAHi; i++ {
			sb.WriteString(" " + a[i] + "\n")
		}
	}
	return sb.String()
}

func rangeSpec(lo, hi int) string {
	n := hi - lo
	start := lo + 1
	if n == 0 {
		start = lo
	}
	if n == 1 {
		return strconv.Itoa(start)
	}
	return fmt.Sprintf("%d,%d", start, n)
}

// groupHunks returns runs of hunks in which non-equal hunks separated by
// at most 2*context equal lines are merged into one display group. Equal
// hunks inside a group are retained; pure-equal prefixes/suffixes are not.
func groupHunks(hunks []Hunk, context int) [][]Hunk {
	var groups [][]Hunk
	var cur []Hunk
	for _, h := range hunks {
		if h.Kind == Equal {
			if len(cur) > 0 && h.AHi-h.ALo <= 2*context {
				cur = append(cur, h)
			} else if len(cur) > 0 {
				groups = append(groups, trimEqual(cur))
				cur = nil
			}
			continue
		}
		cur = append(cur, h)
	}
	if len(cur) > 0 {
		groups = append(groups, trimEqual(cur))
	}
	return groups
}

func trimEqual(g []Hunk) []Hunk {
	for len(g) > 0 && g[len(g)-1].Kind == Equal {
		g = g[:len(g)-1]
	}
	return g
}

func isAllEqual(hunks []Hunk) bool {
	for _, h := range hunks {
		if h.Kind != Equal {
			return false
		}
	}
	return true
}

// EdScript renders the differences from a to b in RCS "diff -n" format:
//
//	dL N   delete N lines starting at line L of a (1-based)
//	aL N   append the next N script lines after line L of a
//
// Applying the script to a (with ApplyEd) yields b.
func EdScript(a, b []string) string {
	var sb strings.Builder
	for _, h := range Diff(a, b) {
		switch h.Kind {
		case Equal:
		case Delete:
			fmt.Fprintf(&sb, "d%d %d\n", h.ALo+1, h.AHi-h.ALo)
		case Insert:
			fmt.Fprintf(&sb, "a%d %d\n", h.ALo, h.BHi-h.BLo)
			for i := h.BLo; i < h.BHi; i++ {
				sb.WriteString(b[i] + "\n")
			}
		case Replace:
			fmt.Fprintf(&sb, "d%d %d\n", h.ALo+1, h.AHi-h.ALo)
			fmt.Fprintf(&sb, "a%d %d\n", h.AHi, h.BHi-h.BLo)
			for i := h.BLo; i < h.BHi; i++ {
				sb.WriteString(b[i] + "\n")
			}
		}
	}
	return sb.String()
}

// ApplyEd applies an RCS-format ed script (as produced by EdScript) to a
// and returns the resulting lines. Line numbers in the script refer to the
// original a, so edits are collected first and then applied in one pass.
func ApplyEd(a []string, script string) ([]string, error) {
	type edit struct {
		line int // 1-based position in a
		del  int // lines deleted starting at line
		ins  []string
	}
	var edits []edit
	rest := script
	for rest != "" {
		var cmdLine string
		cmdLine, rest = cutLine(rest)
		if cmdLine == "" {
			continue
		}
		op := cmdLine[0]
		fields := strings.Fields(cmdLine[1:])
		if (op != 'a' && op != 'd') || len(fields) != 2 {
			return nil, fmt.Errorf("textdiff: malformed ed command %q", cmdLine)
		}
		line, err1 := strconv.Atoi(fields[0])
		count, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || count < 0 || line < 0 {
			return nil, fmt.Errorf("textdiff: malformed ed command %q", cmdLine)
		}
		switch op {
		case 'd':
			// A delete must remove at least one line; a zero count would
			// be indistinguishable from an insert in the apply sweep.
			if count < 1 || line < 1 || line-1+count > len(a) {
				return nil, fmt.Errorf("textdiff: delete out of range in %q (len %d)", cmdLine, len(a))
			}
			edits = append(edits, edit{line: line, del: count})
		case 'a':
			if line > len(a) {
				return nil, fmt.Errorf("textdiff: append past end in %q (len %d)", cmdLine, len(a))
			}
			// A count beyond the script's remaining lines is necessarily
			// truncated; reject before allocating for it.
			if count > strings.Count(rest, "\n")+1 {
				return nil, fmt.Errorf("textdiff: ed script truncated inside %q", cmdLine)
			}
			ins := make([]string, 0, count)
			for i := 0; i < count; i++ {
				if rest == "" {
					return nil, fmt.Errorf("textdiff: ed script truncated inside %q", cmdLine)
				}
				var l string
				l, rest = cutLine(rest)
				ins = append(ins, l)
			}
			// An append after line L happens after any delete at L+1;
			// record it keyed just past the deleted range boundary.
			edits = append(edits, edit{line: line, ins: ins})
		}
	}
	// Apply edits in order of original position. EdScript emits them in
	// ascending, non-overlapping order, so a single sweep suffices.
	out := make([]string, 0, len(a))
	pos := 0 // next unconsumed 0-based line of a
	for _, e := range edits {
		if e.del > 0 {
			start := e.line - 1
			if start < pos {
				return nil, fmt.Errorf("textdiff: overlapping edits at line %d", e.line)
			}
			out = append(out, a[pos:start]...)
			pos = start + e.del
		} else {
			if e.line < pos {
				return nil, fmt.Errorf("textdiff: overlapping edits at line %d", e.line)
			}
			out = append(out, a[pos:e.line]...)
			pos = e.line
			out = append(out, e.ins...)
		}
	}
	out = append(out, a[pos:]...)
	return out, nil
}

func cutLine(s string) (line, rest string) {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
