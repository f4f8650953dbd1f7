package obs

import (
	"bytes"
	"sort"
	"testing"
)

// FuzzParseExposition holds the fleet aggregator's path over a scraped body —
// bytes from another process — to: no panic; and whatever ParseExposition
// accepts, WriteFleet either refuses (the body already carries a node label)
// or re-emits as an exposition that parses again to the same series, each
// now labeled with its node. A body the aggregator accepted must never turn
// into a /metrics/fleet page its own scraper rejects.
func FuzzParseExposition(f *testing.F) {
	// The well-formed seeds and the crasher this target found (raw tab,
	// UTF-8 and control bytes in a label value) live in testdata/fuzz; these
	// are the refusals.
	for _, seed := range []string{
		"fft_plan_runs_total{plan=\"fft2d/64x64\",stage=\"rows\"} 12 1700000000000\n",
		"a{b=\"x\",b=\"y\"} 1\n",
		"a{b=\"unterminated} 1\n",
		"# TYPE a nonsense\n",
		"9a 1\n",
		"a 1 2 3\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		exp, err := ParseExposition(bytes.NewReader(body))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFleet(&out, []NodeExposition{{Node: "peer\"1\\\n", Exp: exp}}); err != nil {
			for _, s := range exp.Samples {
				if _, ok := s.Labels["node"]; ok {
					return // the one refusal WriteFleet documents
				}
			}
			t.Fatalf("WriteFleet refused an exposition without node labels: %v", err)
		}
		again, err := ParseExposition(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("merged exposition does not re-parse: %v\n%s", err, out.Bytes())
		}
		want := make([]string, len(exp.Samples))
		for i, s := range exp.Samples {
			labels := map[string]string{"node": "peer\"1\\\n"}
			for k, v := range s.Labels {
				labels[k] = v
			}
			want[i] = Sample{Name: s.Name, Labels: labels}.Series()
		}
		got := make([]string, len(again.Samples))
		for i, s := range again.Samples {
			got[i] = s.Series()
		}
		sort.Strings(want)
		sort.Strings(got)
		if len(got) != len(want) {
			t.Fatalf("merged exposition has %d samples, the scrape had %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("series %d: merged %s, scraped %s", i, got[i], want[i])
			}
		}
	})
}
