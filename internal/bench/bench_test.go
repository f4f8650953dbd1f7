package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestFigure1Output(t *testing.T) {
	var b bytes.Buffer
	Figure1(&b)
	out := b.String()
	if !strings.Contains(out, "Fig. 1") || !strings.Contains(out, "Kaby Lake") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "[9,9,9]") || !strings.Contains(out, "[10,10,10]") {
		t.Fatal("missing size rows")
	}
	if strings.Count(out, "\n") < 10 {
		t.Fatal("too few rows")
	}
	if !strings.Contains(out, "DoubleBuffering+Spiral") {
		t.Fatal("missing our column")
	}
}

func TestFigure9Output(t *testing.T) {
	var b bytes.Buffer
	Figure9(&b)
	if !strings.Contains(b.String(), "2D FFT") || !strings.Contains(b.String(), "[10,16]") {
		t.Fatalf("figure 9 output wrong:\n%s", b.String())
	}
}

func TestFigure10Output(t *testing.T) {
	var b bytes.Buffer
	Figure10(&b)
	out := b.String()
	if !strings.Contains(out, "two-socket") || !strings.Contains(out, "[11,11,11]") {
		t.Fatalf("figure 10 output wrong:\n%s", out)
	}
	if !strings.Contains(out, "speedup vs MKL") {
		t.Fatal("missing speedup column")
	}
}

func TestFigure11Outputs(t *testing.T) {
	var a, bb, c, d bytes.Buffer
	Figure11a(&a)
	Figure11b(&bb)
	Figure11c(&c)
	Figure11d(&d)
	if !strings.Contains(a.String(), "4770K") {
		t.Error("11a missing machine")
	}
	if !strings.Contains(bb.String(), "FX-8350") {
		t.Error("11b missing machine")
	}
	if !strings.Contains(c.String(), "1→2 sockets") || !strings.Contains(c.String(), "2667") {
		t.Error("11c wrong")
	}
	if !strings.Contains(d.String(), "Interlagos") {
		t.Error("11d wrong")
	}
}

func TestAllPrintsEverything(t *testing.T) {
	var b bytes.Buffer
	All(&b)
	for _, want := range []string{"Fig. 1", "Fig. 9", "Fig. 10", "Fig. 11a", "Fig. 11b", "Fig. 11c", "Fig. 11d"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("All output missing %q", want)
		}
	}
}

func TestSizeLabels(t *testing.T) {
	if got := sizeLabel3([3]int{512, 1024, 512}); got != "[9,10,9]" {
		t.Fatalf("sizeLabel3 = %q", got)
	}
	if log2i(1) != 0 || log2i(2) != 1 || log2i(1024) != 10 {
		t.Fatal("log2i wrong")
	}
}

func TestMeasured3DRuns(t *testing.T) {
	var b bytes.Buffer
	err := Measured3D(&b, MeasuredConfig{
		Sizes3D:   [][3]int{{16, 16, 16}, {32, 16, 16}},
		Reps:      1,
		HostBWGBs: 10, // skip the DRAM copy probe in tests
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "16x16x16") || !strings.Contains(out, "doublebuf") {
		t.Fatalf("measured output wrong:\n%s", out)
	}
}

// The leg table prints an in-cache 2D stage's load as folded, and a 3D
// stage's as the milliseconds its copy took.
func TestLegProbeMarksFoldedLoads(t *testing.T) {
	for _, c := range []struct {
		dims   []int
		folded int
	}{{[]int{64, 64}, 4}, {[]int{16, 16, 16}, 0}} {
		var b bytes.Buffer
		if err := legProbeShape(&b, c.dims, false, 3); err != nil {
			t.Fatal(err)
		}
		rows := 0
		for _, l := range strings.Split(b.String(), "\n") {
			if f := strings.Fields(l); len(f) > 2 && (f[0] == "fwd" || f[0] == "inv") && f[2] == "folded" {
				rows++
			}
		}
		if rows != c.folded {
			t.Errorf("%v: %d leg rows with a folded load, want %d:\n%s", c.dims, rows, c.folded, b.String())
		}
	}
}

// Where the DRAM copy probe has no flush kernel (purego, non-amd64) the
// sweeps print the bandwidth as unknown and no percentage of peak.
func TestMeasuredUnknownBandwidth(t *testing.T) {
	var b bytes.Buffer
	printSweepTitle(&b, "2D", 0)
	if got := b.String(); !strings.Contains(got, "DRAM copy unknown") {
		t.Errorf("title %q, want the bandwidth unknown", got)
	}
	if got := pctPeak(3, 0); got != "-" {
		t.Errorf("pctPeak with no peak = %q, want -", got)
	}
	if got := pctPeak(3, 4); got != "75%" {
		t.Errorf("pctPeak(3, 4) = %q, want 75%%", got)
	}
}

func TestMeasured2DRuns(t *testing.T) {
	var b bytes.Buffer
	err := Measured2D(&b, MeasuredConfig{
		Sizes2D:   [][2]int{{32, 32}, {64, 32}},
		Reps:      1,
		HostBWGBs: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "32x32") {
		t.Fatalf("measured 2D output wrong:\n%s", b.String())
	}
}
