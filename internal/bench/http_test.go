package bench

import "testing"

// TestHTTPEntries runs the two http/transform entries (which check the
// framings against each other before timing) and the shape benchcmp and
// the snapshot readers rely on: a request rate each, the binary exchange at
// exactly 32 bytes per element on the wire and the JSON one above it.
func TestHTTPEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("times HTTP round trips")
	}
	entries, err := httpEntries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name != "http/transform/json/256x256" || entries[1].Name != "http/transform/bin/256x256" {
		t.Fatalf("entries %+v", entries)
	}
	js, bin := entries[0], entries[1]
	if js.ReqPerS <= 0 || bin.ReqPerS <= js.ReqPerS {
		t.Errorf("req/s json %v, bin %v: the binary framing should be the faster", js.ReqPerS, bin.ReqPerS)
	}
	if bin.WireBytesPerOp != 32*256*256 || js.WireBytesPerOp <= bin.WireBytesPerOp {
		t.Errorf("wire bytes json %v, bin %v", js.WireBytesPerOp, bin.WireBytesPerOp)
	}
}
