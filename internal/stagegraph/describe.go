package stagegraph

import (
	"fmt"
	"strings"
)

// Describe renders a stage graph as text: per-stage geometry, store mode (a
// folded radix-4 butterfly, the streaming tier) and a load folded into the
// first sweep, plus the schedule summary. The text does not depend on the
// lane count. Endpoints may be nil — description never touches data — so
// plans can describe graphs without binding arrays.
func Describe(stages []Stage) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stage graph: %d stages, each lane runs its share of a stage load → compute → store\n", len(stages))
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
	fmt.Fprintf(&b, "  schedule: %d iterations, %d stage barrier(s)\n", totalIters, len(stages))
	return b.String()
}
