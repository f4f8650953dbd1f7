package main

import (
	"os"
	"time"
)

// transformWL is a single-caller workload whose op is one forward+inverse
// round trip through a public repro plan. A round trip (not a lone forward)
// keeps the latency sample unimodal and makes every op self-verifying.
type transformWL struct {
	sh   shape
	mem  bool // memory regime: the working set must be ≥ 2× the LLC
	seed int64
	t    *xform
}

func (w *transformWL) ref() *xform  { return w.t }
func (w *transformWL) clients() int { return 1 }
func (w *transformWL) setupReps() int {
	if w.mem {
		return 1
	}
	return 15
}
func (w *transformWL) bytesPerOp() float64   { return w.sh.bytesPerOp() }
func (w *transformWL) peakRSSMiB() float64   { return vmHWMMiB(os.Getpid()) }
func (w *transformWL) layers(metrics, *pass) {}

func (w *transformWL) prepare(seed int64) error {
	w.seed = seed
	w.t = newXform(w.sh, seed)
	return nil
}

func (w *transformWL) setup() (time.Duration, error) {
	return w.t.firstRoundTrip(w.seed)
}

func (w *transformWL) op(c, n int, rec *recorder) (time.Duration, error) {
	h := rec.begin("op", -1, n)
	fwd, inv, err := w.t.roundTrip(rec, h, n)
	rec.end(h)
	if err != nil {
		return 0, err
	}
	return fwd + inv, w.t.checkRoundTrip()
}

func (w *transformWL) teardown() { w.t.close() }
