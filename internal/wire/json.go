package wire

import (
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Bounds of the JSON framing.
const (
	// MaxNumberLen is the longest number token accepted. The shortest
	// round-trip form of a float64 is at most 24 bytes; 48 leaves room for
	// clients that print fixed-precision decimals.
	MaxNumberLen = 48

	// A body may spend jsonWordBytes per declared value (token, comma and
	// indentation) plus jsonHeaderBytes on everything before the data
	// array; past that the request is answered 413.
	jsonWordBytes   = 64
	jsonHeaderBytes = 4 << 10

	// codecChunk sizes the decoder's read buffer and the encoder's write
	// chunks: large enough that reads bypass net/http's 4 KiB bufio and
	// each write is one socket call, small enough to stay cache-resident.
	codecChunk = 64 << 10
)

// jsonBudget is the largest body a request declaring words values may send.
func jsonBudget(words int) int64 {
	return int64(words)*jsonWordBytes + jsonHeaderBytes
}

// DecodeJSON reads one request in the JSON framing
//
//	{"rank":2,"dims":[256,256],"inverse":false,"real":false,"sharded":false,"data":[re,im,...]}
//
// in a single pass: once the shape is known the operand is allocated at
// the size dims declare and every number is grammar-checked and converted
// in one scan of the byte window (scanNumber) straight into it. contentLength
// is the request's Content-Length (−1 when unknown); a body too short to
// hold the declared values is refused before the operand is allocated.
//
// The decoder is stricter than encoding/json. Kept: whitespace anywhere
// JSON allows it, any order of the members before data, omitted
// inverse/real/sharded (false). Refused with a 400: unknown members,
// duplicate members, member names that are not the exact lower-case
// spelling, null for any value, data anywhere but last, bytes after the
// object, and number tokens longer than MaxNumberLen. Whatever both
// accept decodes to bitwise-equal values.
func DecodeJSON(r io.Reader, contentLength int64) (*Request, error) {
	d := &jsonDecoder{r: r, buf: make([]byte, codecChunk), limit: jsonHeaderBytes}
	req, err := d.request(contentLength)
	if err != nil {
		if !errors.Is(err, ErrTooLarge) {
			err = fmt.Errorf("bad request at byte %d: %w", d.off+int64(d.pos), err)
		}
		return nil, err
	}
	return req, nil
}

// jsonDecoder is a byte cursor over a refillable window of the body.
type jsonDecoder struct {
	r        io.Reader
	buf      []byte
	pos, end int   // unread window is buf[pos:end]
	off      int64 // body offset of buf[0]
	limit    int64 // body bytes this request may occupy
	eof      bool
}

// checkBudget fails once the bytes consumed exceed the request's budget.
// It runs before every read, which bounds what a hostile body can make the
// decoder pull, and where the header and the body end, which makes the
// verdict independent of how the body was cut into reads.
func (d *jsonDecoder) checkBudget() error {
	if d.off+int64(d.pos) > d.limit {
		return fmt.Errorf("%w: body exceeds the %d bytes its shape allows", ErrTooLarge, d.limit)
	}
	return nil
}

// fill slides the unread window to the front of buf and reads once more;
// at end of body it sets eof.
func (d *jsonDecoder) fill() error {
	if err := d.checkBudget(); err != nil {
		return err
	}
	copy(d.buf, d.buf[d.pos:d.end])
	d.off += int64(d.pos)
	d.end -= d.pos
	d.pos = 0
	n, err := d.r.Read(d.buf[d.end:])
	d.end += n
	if err == io.EOF {
		d.eof, err = true, nil
	}
	return err
}

// next skips whitespace and returns the next byte without consuming it.
// On return the window holds a whole token (MaxNumberLen+1 bytes, or
// everything up to end of body).
func (d *jsonDecoder) next() (byte, error) {
	for {
		for d.pos < d.end {
			switch d.buf[d.pos] {
			case ' ', '\t', '\r', '\n':
				d.pos++
				continue
			}
			break
		}
		if d.end-d.pos > MaxNumberLen || d.eof {
			break
		}
		// Short window: refill until a token fits or the body ends.
		if err := d.fill(); err != nil {
			return 0, err
		}
	}
	if d.pos == d.end {
		return 0, io.ErrUnexpectedEOF
	}
	return d.buf[d.pos], nil
}

// expect consumes the next non-space byte, which must be c.
func (d *jsonDecoder) expect(c byte) error {
	got, err := d.next()
	if err != nil {
		return err
	}
	if got != c {
		return fmt.Errorf("want %q, got %q", c, got)
	}
	d.pos++
	return nil
}

// word consumes the next token if it is exactly lit.
func (d *jsonDecoder) word(lit string) bool {
	if d.end-d.pos >= len(lit) && string(d.buf[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// Members of the request object.
const (
	memberRank = iota
	memberDims
	memberInverse
	memberReal
	memberSharded
	memberData
)

var jsonMembers = [...]string{
	memberRank: `"rank"`, memberDims: `"dims"`, memberInverse: `"inverse"`,
	memberReal: `"real"`, memberSharded: `"sharded"`, memberData: `"data"`,
}

func (d *jsonDecoder) member() (int, error) {
	if _, err := d.next(); err != nil {
		return 0, err
	}
	for i, m := range jsonMembers {
		if d.word(m) {
			return i, d.expect(':')
		}
	}
	return 0, errors.New("want one of the members rank, dims, inverse, real, sharded, data")
}

func (d *jsonDecoder) boolean() (bool, error) {
	if _, err := d.next(); err != nil {
		return false, err
	}
	switch {
	case d.word("true"):
		return true, nil
	case d.word("false"):
		return false, nil
	}
	return false, errors.New("want true or false")
}

// integer parses -?(0|[1-9][0-9]*), the only number form encoding/json
// unmarshals into an int.
func (d *jsonDecoder) integer() (int, error) {
	if _, err := d.next(); err != nil {
		return 0, err
	}
	var t numberToken
	tok, err := d.number(&t)
	if err != nil {
		return 0, err
	}
	if !t.integer {
		return 0, fmt.Errorf("want an integer, got %s", tok)
	}
	return atoi(tok)
}

// number consumes one number token, scanned into t, and returns it as a
// string aliasing the window (valid until the next fill). The caller has
// run next.
func (d *jsonDecoder) number(t *numberToken) (string, error) {
	b := d.buf[d.pos:d.end]
	if err := scanNumber(b, t); err != nil {
		return "", err
	}
	d.pos += t.n
	return unsafe.String(&b[0], t.n), nil
}

// request parses the whole body.
func (d *jsonDecoder) request(contentLength int64) (*Request, error) {
	if err := d.expect('{'); err != nil {
		return nil, err
	}
	req := &Request{}
	ndims := 0
	var seen [len(jsonMembers)]bool
	for first := true; ; first = false {
		if !first {
			if err := d.expect(','); err != nil {
				return nil, err
			}
		}
		m, err := d.member()
		if err != nil {
			return nil, err
		}
		if seen[m] {
			return nil, fmt.Errorf("duplicate member %s", jsonMembers[m])
		}
		seen[m] = true
		switch m {
		case memberRank:
			req.Rank, err = d.integer()
		case memberDims:
			ndims, err = d.dims(&req.Dims)
		case memberInverse:
			req.Inverse, err = d.boolean()
		case memberReal:
			req.Real, err = d.boolean()
		case memberSharded:
			req.Sharded, err = d.boolean()
		}
		if err != nil {
			return nil, fmt.Errorf("member %s: %w", jsonMembers[m], err)
		}
		if m == memberData {
			break
		}
	}

	if err := d.checkBudget(); err != nil { // the header's
		return nil, err
	}
	if !seen[memberRank] || !seen[memberDims] {
		return nil, errors.New("rank and dims must come before data, the last member")
	}
	if ndims != req.Rank {
		return nil, fmt.Errorf("rank %d needs exactly %d dims, got %d", req.Rank, req.Rank, ndims)
	}
	words, cplx, err := req.srcLen()
	if err != nil {
		return nil, err
	}
	// Every value costs at least a digit and a separator.
	if contentLength >= 0 && contentLength < 2*int64(words) {
		return nil, fmt.Errorf("a %d-byte body cannot hold the %d values dims %v declare",
			contentLength, words, req.Dims[:req.Rank])
	}
	d.limit = jsonBudget(words)
	got, err := d.data(req.alloc(words, cplx))
	if err != nil {
		return nil, fmt.Errorf("member \"data\": %w", err)
	}
	if got != words {
		kind := "real"
		if cplx {
			kind = "interleaved re,im"
		}
		return nil, fmt.Errorf("want %d %s values for dims %v, got %d", words, kind, req.Dims[:req.Rank], got)
	}

	// data is the last member: only the closing brace and whitespace remain.
	if c, err := d.next(); err != nil {
		return nil, err
	} else if c == ',' {
		return nil, errors.New("\"data\" must be the last member of the request object")
	}
	if err := d.expect('}'); err != nil {
		return nil, err
	}
	if c, err := d.next(); err != io.ErrUnexpectedEOF {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trailing %q after the request object", c)
	}
	return req, d.checkBudget()
}

// open consumes an array's '[' and, when the array is empty, its ']'.
func (d *jsonDecoder) open() (empty bool, err error) {
	if err := d.expect('['); err != nil {
		return false, err
	}
	c, err := d.next()
	if err == nil && c == ']' {
		d.pos++
	}
	return c == ']', err
}

// closed consumes the separator after an array element and reports whether
// it closed the array (']') or another element follows (',').
func (d *jsonDecoder) closed() (bool, error) {
	c, err := d.next()
	if err != nil {
		return false, err
	}
	d.pos++
	switch c {
	case ',':
		return false, nil
	case ']':
		return true, nil
	}
	return false, fmt.Errorf("want ',' or ']', got %q", c)
}

// dims parses an array of at most three integers.
func (d *jsonDecoder) dims(into *[3]int) (int, error) {
	done, err := d.open()
	for n := 0; ; n++ {
		if err != nil || done {
			return n, err
		}
		if n == len(into) {
			return 0, errors.New("more than 3 dims")
		}
		if into[n], err = d.integer(); err != nil {
			return 0, err
		}
		done, err = d.closed()
	}
}

// data parses the number array into dst and returns how many values it
// held. One value beyond len(dst) is an error: the array is never longer
// than the shape declares.
//
// It is one loop over the window. A token that starts on a non-space byte
// with a whole token and its separator in the window (MaxNumberLen+2
// bytes) is scanned in place and a ',' or ']' right after it consumed
// directly; next and closed run only for whitespace, a short window or any
// other separator, so every refusal comes out of the same code at the same
// offset whichever way the body was cut into reads.
func (d *jsonDecoder) data(dst []float64) (int, error) {
	if done, err := d.open(); err != nil || done {
		return 0, err
	}
	var t numberToken
	for n := 0; ; n++ {
		if d.end-d.pos < MaxNumberLen+2 || d.buf[d.pos] <= ' ' {
			if _, err := d.next(); err != nil {
				return 0, err
			}
		}
		b := d.buf[d.pos:d.end]
		if err := scanNumber(b, &t); err != nil {
			return 0, err
		}
		d.pos += t.n
		if n == len(dst) {
			return 0, fmt.Errorf("more than the %d values the shape declares", len(dst))
		}
		// Out of range (1e999) is an error, as in encoding/json.
		var err error
		if dst[n], err = t.value(unsafe.String(&b[0], t.n)); err != nil {
			return 0, err
		}
		// scanNumber leaves the token's successor in the window.
		switch b[t.n] {
		case ',':
			d.pos++
			continue
		case ']':
			d.pos++
			return n + 1, nil
		}
		if done, err := d.closed(); err != nil || done {
			return n + 1, err
		}
	}
}

// CheckFinite returns a *NonFiniteError for the first ±Inf or NaN in vals.
func CheckFinite(vals []float64) error {
	for i, v := range vals {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return &NonFiniteError{Index: i, Value: v}
		}
	}
	return nil
}

// EncodeJSON streams {"data":[...]} and a newline to w in codecChunk
// writes and returns the bytes written. The output is byte-identical to
// json.NewEncoder(w).Encode(struct{Data []float64 `json:"data"`}{vals})
// for finite vals; the caller has run CheckFinite.
func EncodeJSON(w io.Writer, vals []float64) (int64, error) {
	buf := make([]byte, 0, codecChunk)
	buf = append(buf, `{"data":[`...)
	var written int64
	for i, v := range vals {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendJSONFloat(buf, v)
		if len(buf) > codecChunk-MaxNumberLen {
			n, err := w.Write(buf)
			written += int64(n)
			if err != nil {
				return written, err
			}
			buf = buf[:0]
		}
	}
	buf = append(buf, "]}\n"...)
	n, err := w.Write(buf)
	return written + int64(n), err
}
