package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/fft1d"
)

// refRequest and refResponse are the bodies as encoding/json sees them:
// the reference both codec directions are held to.
type refRequest struct {
	Rank    int       `json:"rank"`
	Dims    []int     `json:"dims"`
	Inverse bool      `json:"inverse"`
	Real    bool      `json:"real,omitempty"`
	Sharded bool      `json:"sharded,omitempty"`
	Data    []float64 `json:"data"`
}

type refResponse struct {
	Data []float64 `json:"data"`
}

func refEncode(t testing.TB, vals []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(refResponse{Data: vals}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// edgeValues are the floats where encoding/json's formatting changes shape.
var edgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -0.1,
	1e-7, 1e-6, 9.999999999999999e-7, 1.0000000000000002e-6, 1e-5,
	1e20, 1e21, 9.999999999999999e20, 1.0000000000000001e21, 1e22, -1e21,
	5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, // subnormals and the smallest normal
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	0.30000000000000004, 1.7976931348623157e308, 123456789.12345679, // 17 significant digits
	-2.718281828459045, 3.141592653589793e-9, 1e-9, 1.5e-10, 1e100, 1e-100,
	float64(1 << 53), float64(1<<53 + 2), 4503599627370497.5,
}

func TestEncodeJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]float64, 20000) // several codecChunk writes
	for i := range random {
		for {
			random[i] = math.Float64frombits(rng.Uint64())
			if CheckFinite(random[i:i+1]) == nil {
				break
			}
		}
	}
	cases := map[string][]float64{
		"edges":     edgeValues,
		"single":    {42},
		"random":    random,
		"real side": {1, 2.5, -3.25, 4e-7},
	}
	for name, vals := range cases {
		var got bytes.Buffer
		n, err := EncodeJSON(&got, vals)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := refEncode(t, vals)
		if n != int64(got.Len()) {
			t.Errorf("%s: reported %d bytes, wrote %d", name, n, got.Len())
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: output differs from encoding/json\n got %.200s\nwant %.200s", name, got.Bytes(), want)
		}
	}
	// Each edge value on its own, so a mismatch names the value.
	for _, v := range edgeValues {
		var got bytes.Buffer
		if _, err := EncodeJSON(&got, []float64{v}); err != nil {
			t.Fatal(err)
		}
		if want := refEncode(t, []float64{v}); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%g: got %s want %s", v, got.Bytes(), want)
		}
	}
}

func TestCheckFinite(t *testing.T) {
	if err := CheckFinite(edgeValues); err != nil {
		t.Fatalf("finite values refused: %v", err)
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		err := CheckFinite([]float64{1, 2, bad, math.Inf(1)})
		var nf *NonFiniteError
		if !errors.As(err, &nf) || nf.Index != 2 {
			t.Errorf("%v: got %v, want NonFiniteError at index 2", bad, err)
		}
	}
}

func TestDecodeJSONAccepts(t *testing.T) {
	cases := []struct {
		name, body string
		want       Request
	}{
		{"marshal order", `{"rank":1,"dims":[2],"inverse":false,"data":[1,2,3.5,-4e-3]}`,
			Request{Shape: Shape{Rank: 1, Dims: [3]int{2}}, Src: []complex128{complex(1, 2), complex(3.5, -4e-3)}}},
		{"members before data in any order, whitespace", " {\n\t\"inverse\" : true ,\r\n \"dims\" : [ 1 , 2 ] , \"rank\" : 2 , \"data\" : [ 1 , 2\n,3, 4 ]\n}\n ",
			Request{Shape: Shape{Rank: 2, Dims: [3]int{1, 2}, Inverse: true}, Src: []complex128{complex(1, 2), complex(3, 4)}}},
		{"real forward takes plain reals", `{"rank":1,"dims":[4],"real":true,"data":[1,2,3,4]}`,
			Request{Shape: Shape{Rank: 1, Dims: [3]int{4}, Real: true}, RealSrc: []float64{1, 2, 3, 4}}},
		{"real inverse takes the half spectrum", `{"rank":1,"dims":[4],"inverse":true,"real":true,"data":[1,0,2,0,3,0]}`,
			Request{Shape: Shape{Rank: 1, Dims: [3]int{4}, Inverse: true, Real: true}, Src: []complex128{1, 2, 3}}},
		{"sharded rank 3", `{"rank":3,"dims":[1,1,1],"sharded":true,"data":[-0,0]}`,
			Request{Shape: Shape{Rank: 3, Dims: [3]int{1, 1, 1}, Sharded: true}, Src: []complex128{complex(math.Copysign(0, -1), 0)}}},
		{"number forms", `{"rank":1,"dims":[4],"data":[1E2,1e+2,1e-2,0.5,123456789012345678901234567890,5e-324,1e-400,-0.0]}`,
			Request{Shape: Shape{Rank: 1, Dims: [3]int{4}}, Src: []complex128{complex(100, 100), complex(0.01, 0.5),
				complex(123456789012345678901234567890, 5e-324), complex(0, math.Copysign(0, -1))}}},
	}
	for _, c := range cases {
		for _, chunked := range []bool{false, true} {
			var r io.Reader = strings.NewReader(c.body)
			if chunked {
				r = iotest.OneByteReader(r)
			}
			got, err := DecodeJSON(r, int64(len(c.body)))
			if err != nil {
				t.Errorf("%s (one byte at a time: %v): %v", c.name, chunked, err)
				continue
			}
			if got.Shape != c.want.Shape || !sameBits(Floats(got.Src), Floats(c.want.Src)) || !sameBits(got.RealSrc, c.want.RealSrc) {
				t.Errorf("%s: got %+v, want %+v", c.name, *got, c.want)
			}
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestDecodeJSONRejects(t *testing.T) {
	long := strings.Repeat("1", MaxNumberLen+1)
	cases := []struct {
		name, body, errPart string
		tooLarge            bool
	}{
		{"empty body", ``, "unexpected EOF", false},
		{"not an object", `[1,2]`, `want '{'`, false},
		{"top-level null", `null`, `want '{'`, false},
		{"unknown member", `{"rank":1,"dims":[1],"extra":1,"data":[1,2]}`, "want one of the members", false},
		{"member name in another case", `{"Rank":1,"dims":[1],"data":[1,2]}`, "want one of the members", false},
		{"escaped member name", `{"r\u0061nk":1,"dims":[1],"data":[1,2]}`, "want one of the members", false},
		{"duplicate member", `{"rank":1,"rank":1,"dims":[1],"data":[1,2]}`, "duplicate member", false},
		{"null value", `{"rank":1,"dims":null,"data":[1,2]}`, `want '['`, false},
		{"null data", `{"rank":1,"dims":[1],"data":null}`, `want '['`, false},
		{"null bool", `{"rank":1,"dims":[1],"inverse":null,"data":[1,2]}`, "want true or false", false},
		{"data not last", `{"rank":1,"dims":[1],"data":[1,2],"inverse":true}`, "must be the last member", false},
		{"data before dims", `{"rank":1,"data":[1,2],"dims":[1]}`, "rank and dims must come before data", false},
		{"no data", `{"rank":1,"dims":[1]}`, `want ','`, false},
		{"trailing bytes", `{"rank":1,"dims":[1],"data":[1,2]} x`, "trailing", false},
		{"second value", `{"rank":1,"dims":[1],"data":[1,2]}{}`, "trailing", false},
		{"truncated", `{"rank":1,"dims":[1],"data":[1,2]`, "unexpected EOF", false},
		{"truncated in a number", `{"rank":1,"dims":[1],"data":[1,2`, "unexpected EOF", false},
		{"rank out of range", `{"rank":4,"dims":[1,1,1,1],"data":[1,2]}`, "more than 3 dims", false},
		{"rank 0", `{"rank":0,"dims":[],"data":[]}`, "rank must be 1, 2 or 3, got 0", false},
		{"rank and dims disagree", `{"rank":2,"dims":[4],"data":[1,2]}`, "rank 2 needs exactly 2 dims, got 1", false},
		{"zero dim", `{"rank":1,"dims":[0],"data":[]}`, "dims must be ≥ 1", false},
		{"negative dim", `{"rank":1,"dims":[-4],"data":[]}`, "dims must be ≥ 1", false},
		{"fractional rank", `{"rank":1.0,"dims":[1],"data":[1,2]}`, "want an integer", false},
		{"exponent dim", `{"rank":1,"dims":[1e0],"data":[1,2]}`, "want an integer", false},
		{"dim past int", `{"rank":1,"dims":[99999999999999999999],"data":[1,2]}`, "exceed", true},
		{"rank past int", `{"rank":99999999999999999999,"dims":[1],"data":[1,2]}`, "needs exactly", false},
		{"dim past -int", `{"rank":1,"dims":[-99999999999999999999],"data":[]}`, "dims must be ≥ 1", false},
		{"too few values", `{"rank":1,"dims":[2],"data":[1,2,3]}`, "want 4 interleaved re,im values for dims [2], got 3", false},
		{"too many values", `{"rank":1,"dims":[1],"data":[1,2,3]}`, "more than the 2 values", false},
		{"real wants n values", `{"rank":1,"dims":[4],"real":true,"data":[1,2]}`, "want 4 real values", false},
		{"leading zero", `{"rank":1,"dims":[1],"data":[01,2]}`, `want ',' or ']'`, false},
		{"bare minus", `{"rank":1,"dims":[1],"data":[-,2]}`, "want a number", false},
		{"plus sign", `{"rank":1,"dims":[1],"data":[+1,2]}`, "want a number", false},
		{"no digits after point", `{"rank":1,"dims":[1],"data":[1.,2]}`, "digits after the decimal point", false},
		{"no leading digit", `{"rank":1,"dims":[1],"data":[.5,2]}`, "want a number", false},
		{"empty exponent", `{"rank":1,"dims":[1],"data":[1e,2]}`, "digits in the exponent", false},
		{"hex float", `{"rank":1,"dims":[1],"data":[0x1p-2,2]}`, `want ',' or ']'`, false},
		{"infinity", `{"rank":1,"dims":[1],"data":[Infinity,2]}`, "want a number", false},
		{"nan", `{"rank":1,"dims":[1],"data":[NaN,2]}`, "want a number", false},
		{"string value", `{"rank":1,"dims":[1],"data":["1",2]}`, "want a number", false},
		{"out of float64 range", `{"rank":1,"dims":[1],"data":[1e999,2]}`, "out of range", false},
		{"trailing comma", `{"rank":1,"dims":[1],"data":[1,2,]}`, "want a number", false},
		{"token over the bound", `{"rank":1,"dims":[1],"data":[` + long + `,2]}`, "number token longer than", false},
		{"long fraction over the bound", `{"rank":1,"dims":[1],"data":[0.` + long + `,2]}`, "number token longer than", false},
		{"product over the cap", `{"rank":2,"dims":[65536,65536],"data":[]}`, "exceed", true},
		{"product overflows int", `{"rank":3,"dims":[4294967296,4294967296,4294967296],"data":[]}`, "exceed", true},
		{"whitespace past the header budget", `{"rank":1,` + strings.Repeat(" ", jsonHeaderBytes) + `"dims":[1],"data":[1,2]}`, "exceeds", true},
		{"padding past the data budget", `{"rank":1,"dims":[1],"data":[1,` + strings.Repeat(" ", int(jsonBudget(2))) + `2]}`, "exceeds", true},
	}
	for _, c := range cases {
		_, err := DecodeJSON(strings.NewReader(c.body), -1)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errPart)
		}
		if got := errors.Is(err, ErrTooLarge); got != c.tooLarge {
			t.Errorf("%s: ErrTooLarge = %v, want %v (%v)", c.name, got, c.tooLarge, err)
		}
		if want := map[bool]int{false: 400, true: 413}[c.tooLarge]; Status(err) != want {
			t.Errorf("%s: status %d, want %d", c.name, Status(err), want)
		}
	}
}

// TestDecodeLoopAgrees holds the data loop's in-window path to the
// next/closed one. A body of over 4 KiB arrives in one read, so a token at
// the array's start or middle is scanned in place and one in the body's
// last 49 bytes is not; one-byte reads keep the window at most
// MaxNumberLen+1 bytes and send every token through next and closed. The
// two decodes agree in bits and in error text, offset included.
func TestDecodeLoopAgrees(t *testing.T) {
	const n = 256
	for _, tok := range []string{
		"01", "1.e5", // refused by closed and by scanNumber
		" \t\r\n 0.5 \n",                         // whitespace on both sides
		"12345678901234567890",                   // 20 digits: strconv decides
		"9007199254740993",                       // Eisel–Lemire's halfway case
		"1e999",                                  // out of range
		strings.Repeat("1", MaxNumberLen) + ".5", // over the bound where one-byte reads cut it
	} {
		for _, at := range []int{0, n / 2, n - 1} {
			vals := make([]string, n)
			for i := range vals {
				vals[i] = "-0.12345678901234567"
			}
			vals[at] = tok
			body := `{"rank":1,"dims":[256],"real":true,"data":[` + strings.Join(vals, ",") + `]}`
			if len(body) < 4<<10 {
				t.Fatalf("body of %d bytes", len(body))
			}
			whole, err := DecodeJSON(strings.NewReader(body), int64(len(body)))
			cut, cutErr := DecodeJSON(iotest.OneByteReader(strings.NewReader(body)), int64(len(body)))
			if fmt.Sprint(err) != fmt.Sprint(cutErr) {
				t.Errorf("%q at %d: in one read %v, in one-byte reads %v", tok, at, err, cutErr)
				continue
			}
			if err != nil {
				continue
			}
			var ref refRequest
			if err := json.Unmarshal([]byte(body), &ref); err != nil {
				t.Fatalf("%q at %d: encoding/json: %v", tok, at, err)
			}
			if !sameBits(whole.RealSrc, ref.Data) || !sameBits(cut.RealSrc, ref.Data) {
				t.Errorf("%q at %d: values differ from encoding/json's", tok, at)
			}
		}
	}
}

// A declared shape the Content-Length cannot hold is refused before the
// operand is allocated: a small body must not buy a large allocation.
func TestDecodeJSONContentLengthGuard(t *testing.T) {
	body := `{"rank":1,"dims":[33554432],"data":[1,2]}`
	_, err := DecodeJSON(strings.NewReader(body), int64(len(body)))
	if err == nil || !strings.Contains(err.Error(), "cannot hold") {
		t.Fatalf("got %v, want the Content-Length guard", err)
	}
	if allocs := testing.AllocsPerRun(5, func() { _, _ = DecodeJSON(strings.NewReader(body), int64(len(body))) }); allocs > 20 {
		t.Fatalf("refusal allocated %v times", allocs)
	}
}

// request256 is the benchmark's request: complex 256×256 through
// encoding/json.
func request256(t testing.TB) ([]byte, []float64) {
	rng := rand.New(rand.NewSource(7))
	data := make([]float64, 2*256*256)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	body, err := json.Marshal(refRequest{Rank: 2, Dims: []int{256, 256}, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	return body, data
}

func TestDecodeJSONMatchesEncodingJSONAt256(t *testing.T) {
	body, data := request256(t)
	got, err := DecodeJSON(bytes.NewReader(body), int64(len(body)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != 2 || got.Dims != [3]int{256, 256} || !sameBits(Floats(got.Src), data) {
		t.Fatal("decoded operand differs from the marshalled one")
	}
}

// The codec's heap allocations do not grow with the operand: beyond the
// operand itself a decode makes the read buffer, the decoder and the
// request, and an encode its one chunk buffer.
func TestCodecAllocsAreConstant(t *testing.T) {
	body, _ := request256(t)
	rd := bytes.NewReader(body)
	var req *Request
	decode := testing.AllocsPerRun(10, func() {
		rd.Reset(body)
		var err error
		if req, err = DecodeJSON(rd, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	})
	if decode > 8 { // operand, buffer, decoder, request; slack for the runtime
		t.Errorf("DecodeJSON at 256²: %v allocations, want ≤ 8", decode)
	}
	vals := Floats(req.Src)
	encode := testing.AllocsPerRun(10, func() {
		if _, err := EncodeJSON(io.Discard, vals); err != nil {
			t.Fatal(err)
		}
	})
	if encode > 4 {
		t.Errorf("EncodeJSON at 256²: %v allocations, want ≤ 4", encode)
	}
}

func BenchmarkDecodeJSON256(b *testing.B) {
	body, data := request256(b)
	benchmarkDecode(b, body, len(data))
}

// BenchmarkDecodeJSON256Spaced is the request with a space after each
// comma, which keeps the decoder's whitespace path timed.
func BenchmarkDecodeJSON256Spaced(b *testing.B) {
	body, data := request256(b)
	benchmarkDecode(b, bytes.ReplaceAll(body, []byte(","), []byte(", ")), len(data))
}

func benchmarkDecode(b *testing.B, body []byte, values int) {
	eachTier(b, func(b *testing.B) {
		rd := bytes.NewReader(body)
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			if _, err := DecodeJSON(rd, int64(len(body))); err != nil {
				b.Fatal(err)
			}
		}
		reportPerValue(b, values)
	})
}

// eachTier runs bench once per codec tier this host has, as the sub-benchmarks
// avx2 and generic, so one test binary times both.
func eachTier(b *testing.B, bench func(*testing.B)) {
	tiers := []bool{false}
	if hostSIMD {
		tiers = []bool{false, true}
	}
	for _, generic := range tiers {
		setForceGeneric(generic)
		b.Run(codecTier(), bench)
	}
	setForceGeneric(false)
}

// reportPerValue adds ns/value, the codec's cost per float64, to ns/op.
func reportPerValue(b *testing.B, values int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(values), "ns/value")
}

// BenchmarkEncodeJSON256 encodes the request's N(0,1) values, mostly in
// the 0.ddd layout.
func BenchmarkEncodeJSON256(b *testing.B) {
	_, data := request256(b)
	benchmarkEncode(b, data)
}

// BenchmarkEncodeJSON256Reply encodes what http2d's replies carry: the 256²
// forward of uniform [−1, 1) data, σ ≈ 148, mostly in the ddd.ddd layout.
func BenchmarkEncodeJSON256Reply(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(7))
	x := make([]complex128, n*n)
	for i := range x {
		x[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	p := fft1d.NewPlan(n)
	row, col := make([]complex128, n), make([]complex128, n)
	for r := 0; r < n; r++ {
		p.Transform(row, x[r*n:(r+1)*n], fft1d.Forward)
		copy(x[r*n:], row)
	}
	for c := 0; c < n; c++ {
		for r := range col {
			col[r] = x[r*n+c]
		}
		p.Transform(row, col, fft1d.Forward)
		for r, v := range row {
			x[r*n+c] = v
		}
	}
	benchmarkEncode(b, Floats(x))
}

func benchmarkEncode(b *testing.B, data []float64) {
	size := int64(len(refEncode(b, data)))
	eachTier(b, func(b *testing.B) {
		b.SetBytes(size)
		for i := 0; i < b.N; i++ {
			if _, err := EncodeJSON(io.Discard, data); err != nil {
				b.Fatal(err)
			}
		}
		reportPerValue(b, len(data))
	})
}

func ExampleEncodeJSON() {
	var buf bytes.Buffer
	_, _ = EncodeJSON(&buf, []float64{1, -0.5, 1e-7, 1e21})
	fmt.Print(buf.String())
	// Output: {"data":[1,-0.5,1e-7,1e+21]}
}
