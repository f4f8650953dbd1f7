package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// Codec names a /transform framing; the values are the flight recorder's
// codec field.
type Codec string

const (
	JSON   Codec = "json"
	Binary Codec = "bin"
)

// Media types that select the framings.
const (
	jsonType   = "application/json"
	binaryType = "application/octet-stream"
)

// Exchange is one /transform request as read off the wire: the decoded
// request, the framing it arrived in, the framing its reply takes, and the
// body bytes consumed.
type Exchange struct {
	*Request
	Codec    Codec
	Reply    Codec
	ReqBytes int64
}

// countingReader counts the body bytes the decoders pull.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ReadRequest reads one /transform request body. The request is binary
// when its Content-Type is application/octet-stream and JSON otherwise
// (curl -d sends form-urlencoded); the reply takes the framing Accept
// names, or the request's own when Accept names neither. The body is
// capped with http.MaxBytesReader: at exactly the bytes the query string's
// shape occupies for binary, and at the budget of a MaxElems request for
// JSON, whose decoder tightens it to the declared shape's budget once it
// has read dims.
func ReadRequest(w http.ResponseWriter, r *http.Request) (Exchange, error) {
	x := Exchange{Codec: JSON}
	if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err == nil && mt == binaryType {
		x.Codec = Binary
	}
	x.Reply = x.Codec
	switch accept := r.Header.Get("Accept"); {
	case strings.Contains(accept, binaryType):
		x.Reply = Binary
	case strings.Contains(accept, jsonType):
		x.Reply = JSON
	}

	var err error
	if x.Codec == JSON {
		body := &countingReader{r: http.MaxBytesReader(w, r.Body, jsonBudget(2*MaxElems))}
		x.Request, err = DecodeJSON(body, r.ContentLength)
		x.ReqBytes = body.n
		return x, err
	}
	shape, err := parseShapeQuery(r.URL.Query())
	if err != nil {
		return x, err
	}
	words, _, err := shape.srcLen()
	if err != nil {
		return x, err
	}
	if want := int64(words) * 8; r.ContentLength >= 0 && r.ContentLength != want {
		return x, fmt.Errorf("body is %d bytes, dims %v need %d", r.ContentLength, shape.Dims[:shape.Rank], want)
	}
	// One byte of slack lets DecodeBinary see a too-long chunked body as
	// trailing bytes instead of tripping the cap.
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, int64(words)*8+1)}
	x.Request, err = DecodeBinary(body, shape, r.Header)
	x.ReqBytes = body.n
	return x, err
}

// shapeQuery renders a shape as the binary framing's query string:
// dims=256,256 plus inverse, real and sharded when set.
func (s Shape) shapeQuery() string {
	dims := make([]string, s.Rank)
	for i := range dims {
		dims[i] = strconv.Itoa(s.Dims[i])
	}
	q := "dims=" + strings.Join(dims, ",")
	if s.Inverse {
		q += "&inverse=true"
	}
	if s.Real {
		q += "&real=true"
	}
	if s.Sharded {
		q += "&sharded=true"
	}
	return q
}

// parseShapeQuery is the inverse of shapeQuery. The rank is the number of
// dims; unknown and repeated parameters are errors, like unknown and
// duplicate members in the JSON framing.
func parseShapeQuery(q url.Values) (Shape, error) {
	var s Shape
	for name, vals := range q {
		if len(vals) != 1 {
			return s, fmt.Errorf("query parameter %q given %d times", name, len(vals))
		}
		var err error
		switch name {
		case "dims":
			parts := strings.Split(vals[0], ",")
			if len(parts) > len(s.Dims) {
				return s, fmt.Errorf("dims=%s: more than 3 dims", vals[0])
			}
			s.Rank = len(parts)
			for i, p := range parts {
				if s.Dims[i], err = atoi(p); err != nil {
					return s, fmt.Errorf("dims=%s: %w", vals[0], err)
				}
			}
		case "inverse":
			s.Inverse, err = strconv.ParseBool(vals[0])
		case "real":
			s.Real, err = strconv.ParseBool(vals[0])
		case "sharded":
			s.Sharded, err = strconv.ParseBool(vals[0])
		default:
			return s, fmt.Errorf("unknown query parameter %q (want dims, inverse, real, sharded)", name)
		}
		if err != nil {
			return s, fmt.Errorf("query parameter %s: %w", name, err)
		}
	}
	if s.Rank == 0 {
		return s, errors.New("binary framing needs the shape in the query string: dims=n[,m[,k]]")
	}
	return s, nil
}

// DecodeBinary reads one request in the binary framing: body is exactly
// the operand's float64 words, little-endian, in the order the JSON data
// array lists them, and h carries their CRC32-C in HeaderCRC. A truncated
// body, bytes beyond the words the shape declares, and a missing header
// are 400s; a checksum mismatch wraps ErrChecksum.
func DecodeBinary(body io.Reader, shape Shape, h http.Header) (*Request, error) {
	words, cplx, err := shape.srcLen()
	if err != nil {
		return nil, err
	}
	req := &Request{Shape: shape}
	payload := FloatBytes(req.alloc(words, cplx))
	if _, err := io.ReadFull(body, payload); err != nil {
		return nil, fmt.Errorf("body shorter than the %d bytes dims %v need: %w", len(payload), shape.Dims[:shape.Rank], err)
	}
	var one [1]byte
	if n, err := io.ReadFull(body, one[:]); n > 0 {
		return nil, fmt.Errorf("body longer than the %d bytes dims %v need", len(payload), shape.Dims[:shape.Rank])
	} else if err != io.EOF {
		return nil, err
	}
	if err := CheckCRC(h, payload); err != nil {
		return nil, err
	}
	return req, nil
}

// WriteResponse writes a transform's result in framing c and returns the
// body bytes written. JSON results are scanned first: a non-finite value
// returns a *NonFiniteError with nothing written, so the handler can still
// answer 422. The binary framing carries non-finite values as is.
func WriteResponse(w http.ResponseWriter, c Codec, res Result) (int64, error) {
	if c == JSON {
		vals := res.words()
		if err := CheckFinite(vals); err != nil {
			return 0, err
		}
		w.Header().Set("Content-Type", jsonType)
		return EncodeJSON(w, vals)
	}
	payload := FloatBytes(res.words())
	w.Header().Set("Content-Type", binaryType)
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	SetCRC(w.Header(), payload)
	n, err := w.Write(payload)
	return int64(n), err
}

// NewBinaryRequest builds the client side of the binary framing: a POST of
// words to baseURL's /transform with the shape in the query string, the
// CRC header set, and a binary reply requested.
func NewBinaryRequest(baseURL string, shape Shape, words []float64) (*http.Request, error) {
	payload := FloatBytes(words)
	req, err := http.NewRequest(http.MethodPost, baseURL+"/transform?"+shape.shapeQuery(), bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", binaryType)
	req.Header.Set("Accept", binaryType)
	SetCRC(req.Header, payload)
	return req, nil
}

// ReadBinaryResponse reads a binary reply into a fresh word slice and
// verifies its checksum.
func ReadBinaryResponse(resp *http.Response) ([]float64, error) {
	if resp.ContentLength < 0 || resp.ContentLength%8 != 0 || resp.ContentLength > 16*MaxElems {
		return nil, fmt.Errorf("binary reply has Content-Length %d", resp.ContentLength)
	}
	words := make([]float64, resp.ContentLength/8)
	payload := FloatBytes(words)
	if _, err := io.ReadFull(resp.Body, payload); err != nil {
		return nil, err
	}
	return words, CheckCRC(resp.Header, payload)
}
