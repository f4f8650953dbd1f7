package bench

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/machine"
	"repro/internal/memsim"
)

var updateFigures = flag.Bool("update", false, "rewrite testdata/figures.golden from this build")

// figuresGolden is the file TestFiguresGolden pins: every model figure and a
// fixed table of event-simulation seconds. A change to the models moves it
// on purpose (go test ./internal/bench -run TestFiguresGolden -update).
const figuresGolden = "testdata/figures.golden"

// TestFiguresGolden holds the figure models byte-for-byte: the output of
// All, then SimulateDoubleBuf3D at each socket count of every machine and
// SimulateSharded over four nodes, at one 3D size.
func TestFiguresGolden(t *testing.T) {
	var b bytes.Buffer
	All(&b)
	const k, n, m = 1024, 1024, 1024
	fmt.Fprintf(&b, "\nevent simulation, %d×%d×%d:\n", k, n, m)
	for _, mach := range machine.All {
		for s := 1; s <= mach.Sockets; s++ {
			sec, err := memsim.SimulateDoubleBuf3D(mach, k, n, m, s)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s\tsockets %d\t%.6g s\n", mach.Name, s, sec)
		}
		est, err := memsim.SimulateSharded(mach, k, n, m, 4, memsim.NetworkLink{GBs: 12.5})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s\tsharded 4\t%.6g + %.6g + %.6g = %.6g s\n",
			mach.Name, est.ScatterSec, est.RunSec, est.GatherSec, est.TotalSec)
	}
	if *updateFigures {
		if err := os.WriteFile(figuresGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatalf("%v (generate with: go test ./internal/bench -run TestFiguresGolden -update)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("figures differ from %s:\n%s", figuresGolden, b.String())
	}
}
