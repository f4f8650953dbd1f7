package bench

import (
	"io"

	"repro/internal/core"
	"repro/internal/fft1d"
	"repro/internal/trace"
)

// WriteTraceJSON runs a small traced double-buffered 3D transform and
// writes its schedule as Chrome trace_event JSON to w — load the file at
// ui.perfetto.dev (or chrome://tracing) to scrub through the pipeline:
// one lane per worker, loads and stores interleaving with computes on
// opposite buffer halves, the live version of the paper's Table II. When
// gantt is non-nil the ASCII timeline is rendered there as well, so the
// terminal view and the Perfetto view describe the same run.
func WriteTraceJSON(w, gantt io.Writer) error {
	tr := trace.New()
	p, err := core.NewPlan(core.Config{
		Mu: 4, BufferElems: 128, DataWorkers: 1, ComputeWorkers: 1, Tracer: tr,
	}, false, 8, 8, 16)
	if err != nil {
		return err
	}
	defer p.Close()
	src := make([]complex128, p.Len())
	for i := range src {
		src[i] = complex(float64(i%7), float64(i%5))
	}
	dst := make([]complex128, p.Len())
	if err := p.Transform(dst, src, fft1d.Forward); err != nil {
		return err
	}
	if gantt != nil {
		if err := tr.RenderTimeline(gantt); err != nil {
			return err
		}
	}
	return tr.WriteChromeTrace(w)
}
