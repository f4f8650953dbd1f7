package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// PromWriter emits Prometheus text exposition format (version 0.0.4)
// without a client library: the caller declares each family once with
// Family, then appends samples. Values that are NaN or infinite are
// clamped to 0 — an exporter bug must not poison downstream rate() math or
// trip the NaN gate in fftserved's selftest.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error.
func (p *PromWriter) Err() error { return p.err }

// Family writes the # HELP and # TYPE header of one metric family.
func (p *PromWriter) Family(name, help, typ string) {
	p.printf("# HELP %s %s\n", name, escapeHelp(help))
	p.printf("# TYPE %s %s\n", name, typ)
}

// Sample writes one sample line. labels alternate key, value; an odd tail
// is ignored.
func (p *PromWriter) Sample(name string, value float64, labels ...string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	p.printf("%s%s %v\n", name, formatLabels(labels), value)
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func formatLabels(labels []string) string {
	if len(labels) < 2 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, labels[i], labelEscaper.Replace(labels[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes a label value the way the exposition format defines:
// backslash, quote and newline, every other byte as is. (%q would also write
// \t, \x01 or \u00e9 for values a scraped peer may legally carry, which no
// exposition parser — ours included — accepts back.)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// WritePrometheus emits per-plan gauges and counters for every registered
// collector: cumulative stage bytes and op seconds, effective per-stage
// bandwidth with its fraction of the roofline, and barrier wait.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snaps := r.Snapshots()
	p := NewPromWriter(w)

	p.Family("fft_plan_runs_total", "Transform executions per registered plan.", "counter")
	for _, s := range snaps {
		p.Sample("fft_plan_runs_total", float64(s.Runs), "plan", s.Label)
	}
	p.Family("fft_plan_barrier_wait_seconds_total", "Cumulative lane time waiting at stage barriers.", "counter")
	for _, s := range snaps {
		p.Sample("fft_plan_barrier_wait_seconds_total", float64(s.BarrierWaitNs)/1e9, "plan", s.Label)
	}
	p.Family("fft_plan_roofline_gbps", "STREAM peak the plan's bandwidth is normalized against (0 = unknown).", "gauge")
	for _, s := range snaps {
		p.Sample("fft_plan_roofline_gbps", s.RooflineGBs, "plan", s.Label)
	}
	p.Family("fft_stage_bytes_total", "Bytes moved per stage and direction.", "counter")
	for _, s := range snaps {
		for _, st := range s.Stages {
			p.Sample("fft_stage_bytes_total", float64(st.Load.Bytes), "plan", s.Label, "stage", st.Name, "op", "load")
			p.Sample("fft_stage_bytes_total", float64(st.Store.Bytes), "plan", s.Label, "stage", st.Name, "op", "store")
		}
	}
	p.Family("fft_stage_seconds_total", "Lane-summed op time per stage and op. A load folded into the first compute sweep records none: its time is in the compute op.", "counter")
	for _, s := range snaps {
		for _, st := range s.Stages {
			p.Sample("fft_stage_seconds_total", float64(st.Load.Ns)/1e9, "plan", s.Label, "stage", st.Name, "op", "load")
			p.Sample("fft_stage_seconds_total", float64(st.Store.Ns)/1e9, "plan", s.Label, "stage", st.Name, "op", "store")
			p.Sample("fft_stage_seconds_total", float64(st.ComputeNs)/1e9, "plan", s.Label, "stage", st.Name, "op", "compute")
		}
	}
	p.Family("fft_stage_bandwidth_gbps", "Effective stage bandwidth: bytes over the busiest lane's op time.", "gauge")
	for _, s := range snaps {
		for _, st := range s.Stages {
			p.Sample("fft_stage_bandwidth_gbps", st.Load.GBs, "plan", s.Label, "stage", st.Name, "op", "load")
			p.Sample("fft_stage_bandwidth_gbps", st.Store.GBs, "plan", s.Label, "stage", st.Name, "op", "store")
		}
	}
	p.Family("fft_stage_frac_peak", "Stage bandwidth as a fraction of the roofline.", "gauge")
	for _, s := range snaps {
		for _, st := range s.Stages {
			p.Sample("fft_stage_frac_peak", st.FracPeak, "plan", s.Label, "stage", st.Name)
		}
	}
	return p.Err()
}
