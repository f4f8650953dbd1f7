package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func parseExp(t *testing.T, text string) *Exposition {
	t.Helper()
	exp, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	return exp
}

func TestParseExpositionKeepsMetadata(t *testing.T) {
	exp := parseExp(t, `
# HELP fft_x Things counted.
# TYPE fft_x counter
fft_x 3
# TYPE fft_h histogram
fft_h_bucket{le="+Inf"} 1
fft_h_sum 0.5
fft_h_count 1
`)
	if exp.Types["fft_x"] != "counter" || exp.Types["fft_h"] != "histogram" {
		t.Fatalf("types = %v", exp.Types)
	}
	if exp.Help["fft_x"] != "Things counted." {
		t.Fatalf("help = %v", exp.Help)
	}
	if got := exp.FamilyOf("fft_h_bucket"); got != "fft_h" {
		t.Fatalf("FamilyOf(fft_h_bucket) = %q", got)
	}
	// _sum on a non-histogram family is its own family.
	if got := exp.FamilyOf("fft_x_sum"); got != "fft_x_sum" {
		t.Fatalf("FamilyOf(fft_x_sum) = %q", got)
	}
}

func TestValidateExpositionHistogramChecks(t *testing.T) {
	good := `
# TYPE fft_h histogram
fft_h_bucket{le="0.1"} 2
fft_h_bucket{le="1"} 5
fft_h_bucket{le="+Inf"} 7
fft_h_sum 1.5
fft_h_count 7
`
	if _, err := ValidateExposition(strings.NewReader(good)); err != nil {
		t.Fatalf("valid histogram rejected: %v", err)
	}

	bad := map[string]string{
		"non-cumulative": `
# TYPE fft_h histogram
fft_h_bucket{le="0.1"} 5
fft_h_bucket{le="1"} 2
fft_h_bucket{le="+Inf"} 7
fft_h_sum 1.5
fft_h_count 7
`,
		"missing +Inf": `
# TYPE fft_h histogram
fft_h_bucket{le="1"} 2
fft_h_sum 1.5
fft_h_count 2
`,
		"count disagrees": `
# TYPE fft_h histogram
fft_h_bucket{le="+Inf"} 7
fft_h_sum 1.5
fft_h_count 9
`,
		"missing sum": `
# TYPE fft_h histogram
fft_h_bucket{le="+Inf"} 7
fft_h_count 7
`,
		"missing le": `
# TYPE fft_h histogram
fft_h_bucket 7
fft_h_sum 1.5
fft_h_count 7
`,
	}
	for name, text := range bad {
		if _, err := ValidateExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Labeled children are validated independently; float slack from scaled
	// exporters must pass.
	labeled := `
# TYPE fft_h histogram
fft_h_bucket{peer="a",le="0.1"} 2.0000000000000004
fft_h_bucket{peer="a",le="+Inf"} 2.0000000000000004
fft_h_sum{peer="a"} 0.1
fft_h_count{peer="a"} 2.0000000000000004
fft_h_bucket{peer="b",le="+Inf"} 1
fft_h_sum{peer="b"} 0.2
fft_h_count{peer="b"} 1
`
	if _, err := ValidateExposition(strings.NewReader(labeled)); err != nil {
		t.Fatalf("labeled histogram rejected: %v", err)
	}
}

func TestWriteFleetMergesWithNodeLabels(t *testing.T) {
	a := parseExp(t, `
# HELP fft_x Things.
# TYPE fft_x counter
fft_x 3
# TYPE fft_h histogram
fft_h_bucket{le="+Inf"} 1
fft_h_sum 0.5
fft_h_count 1
`)
	b := parseExp(t, `
# TYPE fft_x counter
fft_x 4
`)
	var buf bytes.Buffer
	if err := WriteFleet(&buf, []NodeExposition{{Node: "n0", Exp: a}, {Node: "n1", Exp: b}}); err != nil {
		t.Fatal(err)
	}
	// The merged output must itself validate (histogram structure intact,
	// no duplicate series because node labels distinguish them).
	samples, err := ValidateExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("merged exposition invalid: %v\n%s", err, buf.String())
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.Series()] = s.Value
	}
	if got[`fft_x{node="n0"}`] != 3 || got[`fft_x{node="n1"}`] != 4 {
		t.Fatalf("per-node series wrong: %v", got)
	}
	if _, ok := got[`fft_h_bucket{le="+Inf",node="n0"}`]; !ok {
		t.Fatalf("histogram child lost its node label: %v", got)
	}
	// TYPE metadata survives: the merged exposition re-declares fft_h as a
	// histogram (otherwise _bucket would not validate against _count).
	if !strings.Contains(buf.String(), "# TYPE fft_h histogram") {
		t.Fatalf("TYPE metadata dropped:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "# HELP fft_x Things.") {
		t.Fatalf("HELP metadata dropped:\n%s", buf.String())
	}
}

func TestWriteFleetRejectsNodeLabelClash(t *testing.T) {
	a := parseExp(t, "fft_x{node=\"sneaky\"} 1\n")
	var buf bytes.Buffer
	if err := WriteFleet(&buf, []NodeExposition{{Node: "n0", Exp: a}}); err == nil {
		t.Fatal("pre-labeled node sample accepted")
	}
}

func TestBuildInfoExposition(t *testing.T) {
	bi := ReadBuildInfo("avx2", "avx avx2 fma avx512f avx512dq")
	if bi.KernelTier != "avx2" || bi.GoMaxProcs < 1 {
		t.Fatalf("build info = %+v", bi)
	}
	var buf bytes.Buffer
	if err := bi.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ValidateExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("build info exposition invalid: %v\n%s", err, buf.String())
	}
	if len(samples) != 1 || samples[0].Value != 1 {
		t.Fatalf("samples = %v", samples)
	}
	for _, label := range []string{"version", "commit", "kernel_tier", "cpu_features", "gomaxprocs"} {
		if samples[0].Labels[label] == "" {
			t.Fatalf("missing %s label: %v", label, samples[0].Labels)
		}
	}
}

func TestShardMetricsPeerAccounting(t *testing.T) {
	m := &ShardMetrics{}
	m.ObservePeerChunk("http://a", 1024, 2*time.Millisecond)
	m.ObservePeerChunk("http://a", 2048, 4*time.Millisecond)
	m.ObservePeerChunk("http://b", 512, time.Millisecond)
	m.AddPeerRetry("http://a")
	m.SetStragglerRatio(1.25)

	snaps := m.PeerSnapshots()
	if len(snaps) != 2 || snaps[0].Peer != "http://a" || snaps[1].Peer != "http://b" {
		t.Fatalf("snapshots = %+v", snaps)
	}
	if snaps[0].Bytes != 3072 || snaps[0].Chunks != 2 || snaps[0].Retries != 1 {
		t.Fatalf("peer a = %+v", snaps[0])
	}
	if snaps[0].P50Ns <= 0 || snaps[0].P99Ns < snaps[0].P50Ns {
		t.Fatalf("quantiles = %+v", snaps[0])
	}

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ValidateExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("shard exposition invalid: %v\n%s", err, buf.String())
	}
	got := map[string]float64{}
	for _, s := range samples {
		got[s.Series()] = s.Value
	}
	if got[`fft_exchange_peer_bytes_total{peer="http://a"}`] != 3072 {
		t.Fatalf("peer bytes missing: %v", buf.String())
	}
	if got[`fft_exchange_chunk_latency_seconds_count{peer="http://b"}`] != 1 {
		t.Fatalf("latency histogram missing: %v", buf.String())
	}
	if got[`fft_shard_straggler_ratio`] != 1.25 {
		t.Fatalf("straggler ratio = %v", got[`fft_shard_straggler_ratio`])
	}
}
