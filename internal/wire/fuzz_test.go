package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve"
)

// pieceReader hands out at most n bytes per Read, so token and window
// boundaries land everywhere the fuzzer can put them.
type pieceReader struct {
	r io.Reader
	n int
}

func (p pieceReader) Read(b []byte) (int, error) {
	if len(b) > p.n {
		b = b[:p.n]
	}
	return p.r.Read(b)
}

// FuzzDecodeTransformRequest is the differential against encoding/json:
// the strict decoder may refuse what encoding/json accepts, never the
// other way round, whatever both accept decodes to the same shape and
// bitwise-equal values, however the body is cut into reads, and passes
// serve's validation.
func FuzzDecodeTransformRequest(f *testing.F) {
	for _, seed := range []string{
		`{"rank":1,"dims":[2],"inverse":false,"data":[1,2,3.5,-4e-3]}`,
		`{"rank":2,"dims":[1,2],"inverse":true,"real":true,"sharded":false,"data":[0.1,-0,1e21,5e-324]}`,
		` { "dims" : [ 4 ] , "rank" : 1 , "real" : true , "data" : [ 1 , 2 , 3 , 4 ] } `,
		`{"rank":1,"dims":[1],"data":[1e999,2]}`,
		`{"rank":1,"dims":[1],"data":[1,2]} trailing`,
		`{"Rank":1,"dims":[1],"data":[1,2],"data":[3,4]}`,
		`{"rank":1,"dims":[1],"data":[01,2]}`,
		`{"rank":3,"dims":[1,1,1],"data":[1.7976931348623157e308,-2.2250738585072014e-308]}`,
		`null`,
		// Long enough past '[' for the data loop's in-window path.
		`{"rank":2,"dims":[2,2],"data":[-0.12345678901234567,148.04599043215437,-9.5e-7,` +
			`12345678901234567890,9007199254740993,1e-300,0.5,-2]}`,
		`{"rank":1,"dims":[3],"real":true,"data":[0.30000000000000004, -1.7976931348623157e308,` + "\n\t" + `01]}`,
	} {
		f.Add([]byte(seed), uint8(0))
		f.Add([]byte(seed), uint8(3))
	}
	f.Fuzz(func(t *testing.T, body []byte, piece uint8) {
		got, err := DecodeJSON(bytes.NewReader(body), int64(len(body)))
		cut, cutErr := DecodeJSON(pieceReader{bytes.NewReader(body), int(piece) + 1}, int64(len(body)))
		// The budget's 413 is checked at reads, so where a body over it is
		// refused depends on the cut; any other refusal is the same text at
		// the same byte.
		if (err == nil) != (cutErr == nil) || err != nil && !errors.Is(err, ErrTooLarge) &&
			!errors.Is(cutErr, ErrTooLarge) && err.Error() != cutErr.Error() {
			t.Fatalf("whole body: %v; in %d-byte reads: %v", err, int(piece)+1, cutErr)
		}
		if err != nil {
			return
		}
		var ref refRequest
		if refErr := json.Unmarshal(body, &ref); refErr != nil {
			t.Fatalf("accepted a body encoding/json rejects: %v", refErr)
		}
		serveAccepts(t, got)
		if got.Shape != cut.Shape || !sameBits(Floats(got.Src), Floats(cut.Src)) || !sameBits(got.RealSrc, cut.RealSrc) {
			t.Fatal("decode depends on how the body is cut into reads")
		}
		if got.Rank != ref.Rank || got.Rank != len(ref.Dims) || got.Inverse != ref.Inverse ||
			got.Real != ref.Real || got.Sharded != ref.Sharded {
			t.Fatalf("shape %+v differs from encoding/json's %+v", got.Shape, ref)
		}
		for i, d := range ref.Dims {
			if got.Dims[i] != d {
				t.Fatalf("dims %v differ from encoding/json's %v", got.Dims, ref.Dims)
			}
		}
		vals := got.RealSrc
		if got.Src != nil {
			vals = Floats(got.Src)
		}
		if !sameBits(vals, ref.Data) {
			t.Fatal("values differ from encoding/json's")
		}
	})
}

// serveAccepts holds a request the codec accepted to the server's rule: the
// request and the result NewResult allocates for it pass serve's
// validation, so the codec never reads an operand the server refuses.
func serveAccepts(t *testing.T, req *Request) {
	t.Helper()
	res := req.NewResult()
	sr := serve.Request{Rank: req.Rank, Dims: req.Dims, Inverse: req.Inverse, Real: req.Real, Sharded: req.Sharded,
		Src: req.Src, RealSrc: req.RealSrc, Dst: res.Dst, RealDst: res.RealDst}
	if err := sr.Validate(); err != nil {
		t.Fatalf("codec accepted %+v, which serve refuses: %v", req.Shape, err)
	}
}

// FuzzParseNumber puts an arbitrary token where the second value of a
// two-real request goes: the decoder accepts it exactly when the token
// (JSON whitespace aside) is in the number grammar, within MaxNumberLen and
// in strconv.ParseFloat's range, the value is bitwise what
// strconv.ParseFloat gives, and neither depends on where a window refill
// cuts the body.
func FuzzParseNumber(f *testing.F) {
	// The halfway, long-mantissa, bound and range seeds are in testdata;
	// these are the grammar's edges.
	for _, seed := range []string{
		"-0", "-0.0e-0", "8.5e-4", "0e999999", strings.Repeat(" ", 60) + "1.5", "1.25" + strings.Repeat("\n", 60),
		"01", "1.", "-", "1e+", "0x1p-2", "1,2", "1]}",
	} {
		f.Add([]byte(seed), uint8(0))
		f.Add([]byte(seed), uint8(47))
	}
	f.Fuzz(func(t *testing.T, tok []byte, piece uint8) {
		if len(tok) > 256 {
			return // past the header and one value's budget the answer is a 413
		}
		body := []byte(`{"rank":1,"dims":[2],"real":true,"data":[0,` + string(tok) + `]}`)
		req, err := DecodeJSON(bytes.NewReader(body), int64(len(body)))
		cut, cutErr := DecodeJSON(pieceReader{bytes.NewReader(body), int(piece) + 1}, int64(len(body)))
		want, wantErr := refParseNumber(strings.Trim(string(tok), " \t\r\n"))
		if (err == nil) != (wantErr == nil) || fmt.Sprint(cutErr) != fmt.Sprint(err) {
			t.Fatalf("%q: whole body %v, in %d-byte reads %v, reference %v", tok, err, int(piece)+1, cutErr, wantErr)
		}
		if err != nil {
			return
		}
		for _, got := range []*Request{req, cut} {
			if len(got.RealSrc) != 2 || math.Float64bits(got.RealSrc[1]) != math.Float64bits(want) {
				t.Fatalf("%q decoded to %v, strconv.ParseFloat gives %v", tok, got.RealSrc, want)
			}
		}
	})
}

// FuzzAppendFloat holds the direct formatter to the strconv-based one on
// arbitrary bit patterns, and the parser to reading the result back.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range edgeValues {
		f.Add(math.Float64bits(v))
	}
	for _, e := range []int{-1074, -1022, -537, -20, -1, 0, 1, 63, 64, 70, 1023} {
		v := math.Ldexp(1, e)
		f.Add(math.Float64bits(v))
		f.Add(math.Float64bits(v) + 1)
		f.Add(math.Float64bits(v) - 1)
	}
	f.Fuzz(func(t *testing.T, u uint64) {
		v := math.Float64frombits(u)
		if CheckFinite([]float64{v}) != nil {
			return // EncodeJSON's caller has refused it
		}
		checkFloat(t, v, nil, true)
		// The batch encoder against appendJSONFloat, with v among neighbours
		// of other layouts and the zero and exponent forms it hands back.
		batch := []float64{v, -v, v * 1e3, v / 7, 0, v * 1e-9, math.Nextafter(v, 0), v * 1e19}
		if CheckFinite(batch) == nil {
			checkBatch(t, batch)
		}
	})
}

// checkBatch holds appendValues on this host's tier to appendJSONFloat and
// a comma per value, byte for byte.
func checkBatch(t *testing.T, vals []float64) {
	t.Helper()
	var want []byte
	for _, v := range vals {
		want = append(appendJSONFloat(want, v), ',')
	}
	if got := appendValues([]byte("x"), vals); string(got[1:]) != string(want) {
		t.Fatalf("%v: batch encoder (%s) wrote %s, appendJSONFloat %s", vals, codecTier(), got[1:], want)
	}
}

// FuzzScanRun decodes arbitrary bytes after the data array's '[' through
// the run scanner and the per-token loop, and again through the loop
// alone: the values, the byte the decode stops at and the verdict's text
// must agree. The array is declared as long as its commas allow, or one
// shorter; the 40 spaces before it let a run start at the first token.
func FuzzScanRun(f *testing.F) {
	for _, seed := range []string{
		"1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30]",
		"-0.12345678901234567,148.04599043215437,-9.5e-7,0.5,-2,0.000001,1e-7,1e21,9007199254740993,0,-0]",
	} {
		f.Add([]byte(seed), uint8(0))
		f.Add([]byte(seed), uint8(1))
	}
	f.Fuzz(func(t *testing.T, tail []byte, short uint8) {
		if len(tail) > 1<<14 {
			return
		}
		n := bytes.Count(tail, []byte(",")) + 1 - int(short&1)
		body := append([]byte(strings.Repeat(" ", 40)+"["), tail...)
		vals, got, at, err := decodeData(body, n, false)
		refVals, refGot, refAt, refErr := decodeData(body, n, true)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || at != refAt || got != refGot {
			t.Fatalf("%s tier: %d values, stopped at byte %d, %v; generic: %d values, at %d, %v",
				codecTier(), got, at, err, refGot, refAt, refErr)
		}
		if err == nil && !sameBits(vals[:got], refVals[:got]) {
			t.Fatalf("%s tier: values %v, generic %v", codecTier(), vals[:got], refVals[:got])
		}
	})
}

// decodeData runs the data loop over body, whose first non-space byte is
// the array's '[', into n values on the generic tier or this host's, and
// returns the values, how many it held, the body offset it stopped at and
// its error.
func decodeData(body []byte, n int, generic bool) ([]float64, int, int64, error) {
	setForceGeneric(generic)
	defer setForceGeneric(false)
	d := &jsonDecoder{r: bytes.NewReader(body), buf: make([]byte, codecChunk), limit: math.MaxInt64}
	dst := make([]float64, n)
	got, err := d.data(dst)
	return dst, got, d.off + int64(d.pos), err
}

// FuzzBinaryFrame drives the binary framing's decoder with arbitrary
// shapes, bodies and checksums. A frame is accepted exactly when the shape
// is one the server runs, the body is exactly the shape's bytes and the
// checksum matches; an accepted operand is the body, bit for bit, and
// passes serve's validation.
func FuzzBinaryFrame(f *testing.F) {
	good := FloatBytes([]float64{1, 2, 3, 4})
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), good, uint32(0))                  // valid complex n=2
	f.Add(uint8(4), uint8(0), uint8(0), uint8(2), good, uint32(0))                  // valid real forward n=4
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), good[:24], uint32(0))             // truncated body
	f.Add(uint8(2), uint8(0), uint8(0), uint8(0), good, uint32(1))                  // bad CRC
	f.Add(uint8(3), uint8(0), uint8(0), uint8(0), good, uint32(0))                  // length ≠ ∏dims
	f.Add(uint8(1), uint8(2), uint8(1), uint8(1), good, uint32(0))                  // rank 3, inverse
	f.Add(uint8(2), uint8(0), uint8(0), uint8(3), append(good, good...), uint32(0)) // real inverse: half spectrum
	f.Fuzz(func(t *testing.T, d0, d1, d2, flags uint8, body []byte, crcDelta uint32) {
		// Dims stay below 32 so a valid shape is at most 512 KiB; a zero
		// dim ends the shape (rank = the dims before it).
		shape := Shape{Inverse: flags&1 != 0, Real: flags&2 != 0, Sharded: flags&4 != 0}
		for _, d := range []uint8{d0, d1, d2} {
			if d%32 == 0 {
				break
			}
			shape.Dims[shape.Rank] = int(d % 32)
			shape.Rank++
		}
		h := http.Header{}
		h.Set(HeaderCRC, strconv.FormatUint(uint64(crc32.Checksum(body, castagnoli)+crcDelta), 10))

		req, err := DecodeBinary(bytes.NewReader(body), shape, h)

		words, _, shapeErr := shape.srcLen()
		wantOK := shapeErr == nil && len(body) == 8*words && crcDelta == 0
		if (err == nil) != wantOK {
			t.Fatalf("shape %+v, %d body bytes, crc off by %d: err = %v", shape, len(body), crcDelta, err)
		}
		if err != nil {
			if s := Status(err); s != 400 && s != 413 && s != 422 {
				t.Fatalf("status %d for %v", s, err)
			}
			return
		}
		serveAccepts(t, req)
		operand := FloatBytes(req.RealSrc)
		if req.Src != nil {
			operand = ComplexBytes(req.Src)
		}
		if !bytes.Equal(operand, body) || (req.Src != nil) == (req.RealSrc != nil) {
			t.Fatal("accepted operand is not the body")
		}
	})
}
