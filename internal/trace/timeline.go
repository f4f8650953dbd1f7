package trace

import (
	"fmt"
	"io"
	"strings"
)

// RenderTimeline writes the recorded schedule as text, one line per lane:
// for each stage the lane's share of iterations and, per block, the ops it
// ran in order. Example output for a two-stage graph of 4 and 2 iterations
// on two lanes:
//
//	lane/0  s0 i0–1: LCS LCS | s1 i0: LCS
//	lane/1  s0 i2–3: LCS LCS | s1 i1: LCS
//
// where L = load, C = compute, S = store. A folded leg shows no letter: a
// block whose first sweep read its source shows CS, one whose last sweep
// also wrote its destination shows C.
func (r *Recorder) RenderTimeline(w io.Writer) error {
	evs := r.Events()
	if len(evs) == 0 {
		_, err := fmt.Fprintln(w, "(no events recorded)")
		return err
	}
	lanes, _ := laneRows(evs, 0)
	var b strings.Builder
	for _, l := range lanes {
		stage, first, last := -1, 0, 0
		var groups, cells []string
		flush := func() {
			if stage < 0 {
				return
			}
			iters := fmt.Sprintf("i%d", first)
			if last > first {
				iters += fmt.Sprintf("–%d", last)
			}
			groups = append(groups, fmt.Sprintf("s%d %s: %s", stage, iters, strings.Join(cells, " ")))
		}
		for _, e := range evs {
			if e.Lane != l || e.Folded {
				continue
			}
			if e.Stage != stage {
				flush()
				stage, first, cells = e.Stage, e.Iter, nil
			}
			if len(cells) == 0 || e.Iter != last {
				cells = append(cells, "")
			}
			last = e.Iter
			cells[len(cells)-1] += opLetter(e.Op)
		}
		flush()
		fmt.Fprintf(&b, "lane/%-3d %s\n", l, strings.Join(groups, " | "))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func opLetter(o Op) string {
	switch o {
	case Load:
		return "L"
	case Compute:
		return "C"
	case Store:
		return "S"
	}
	return "?"
}
