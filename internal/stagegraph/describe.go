package stagegraph

import (
	"fmt"
	"strings"
)

// Describe renders a compiled stage graph as text: per-stage geometry, store
// mode (a folded radix-4 butterfly, the streaming tier) and a load folded
// into the first sweep, plus the fused-schedule summary. Endpoints may be nil — description never
// touches data — so plans can describe graphs without binding arrays.
func Describe(stages []Stage, fused bool) string {
	var b strings.Builder
	mode := "fused"
	if !fused {
		mode = "unfused"
	}
	fmt.Fprintf(&b, "stage graph: %d stages, %s cross-stage schedule\n", len(stages), mode)
	totalIters := 0
	for i := range stages {
		st := &stages[i]
		totalIters += st.Iters
		sunits, slen := st.storeGeometry()
		fmt.Fprintf(&b, "  stage %d %-10s iters=%-5d load %d×%d elems/block, store %d×%d via rotation %d×%d",
			i, st.Name, st.Iters, st.Units, st.UnitLen, sunits, slen, st.Rot.Blocks, st.Rot.BlockLen)
		if st.StoreRadix != 0 {
			fmt.Fprintf(&b, ", radix-%d fold", st.StoreRadix)
		}
		if st.NonTemporal {
			b.WriteString(", streaming")
		}
		if st.FoldLoad {
			b.WriteString(", load folded into the first sweep")
		}
		b.WriteString("\n")
	}
	steps := Steps(stages, fused)
	drains := 1
	if !fused {
		drains = len(stages)
	}
	fmt.Fprintf(&b, "  schedule: %d iterations in %d steps, %d drain(s)", totalIters, steps, drains)
	if fused && len(stages) > 1 {
		fmt.Fprintf(&b, "; boundary stores overlap next-stage loads")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  fill overhead: %.4f (unfused %.4f)\n",
		float64(Steps(stages, true))/float64(totalIters),
		float64(Steps(stages, false))/float64(totalIters))
	return b.String()
}
