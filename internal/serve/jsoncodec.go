package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// The JSON request codec of the classify/observe hot path: a strict,
// single-pass decoder over exactly two body shapes, in place of
// encoding/json's reflection.
//
//	classify: {"records":[[n,…],…],"proba":true|false}
//	observe:  {"records":[[n,…],…],"classes":[int,…]}
//
// Keys may come in any order, with any JSON whitespace (space, tab, CR,
// LF) between tokens; "proba" is optional, "classes" is required on
// observe. Numbers must match the RFC 8259 grammar and are converted
// with strconv.ParseFloat(tok, 64) and strconv.ParseInt(tok, 10, 64), the
// calls encoding/json makes, so every accepted value is bit-identical to
// what encoding/json would have produced (FuzzClassifyRequest checks this
// differentially). The decoder is stricter than encoding/json: it rejects
// unknown or repeated keys, keys that would match only case-insensitively
// or through escapes, null anywhere, non-integer classes, and any
// non-whitespace after the closing brace. Every rejection names the byte
// offset of the offending token.
//
// Values land in one flat []float64 sliced per record; the decoded batch
// then goes through the same decodeRecords validation as the binary
// codec's. The body and the parse scratch come from a pool, because
// nothing keeps them past decoding.

const (
	// jsonFirstBufMax caps how much of a declared Content-Length the first
	// read buffer is sized for. The header is the client's claim, not bytes
	// present, so a larger body grows the buffer as its bytes arrive.
	jsonFirstBufMax = 64 << 10
	// jsonPooledMax is the largest scratch buffer, in bytes, returned to
	// the pool, so one huge batch does not stay pinned in memory.
	jsonPooledMax = 1 << 20
)

// jsonScratch is the pooled state of one JSON decode: the body bytes and
// the values, record bounds and classes as they are parsed. The decoded
// request is copied out of it, so the scratch is reusable at once.
type jsonScratch struct {
	body    []byte
	vals    []float64
	ends    []int // end of each record in vals
	classes []int
}

var jsonScratchPool = sync.Pool{New: func() any { return new(jsonScratch) }}

// release returns sc to the pool, dropping any buffer over jsonPooledMax.
func (sc *jsonScratch) release() {
	if cap(sc.body) > jsonPooledMax {
		sc.body = nil
	}
	if cap(sc.vals)*8 > jsonPooledMax {
		sc.vals = nil
	}
	if cap(sc.ends)*8 > jsonPooledMax {
		sc.ends = nil
	}
	if cap(sc.classes)*8 > jsonPooledMax {
		sc.classes = nil
	}
	jsonScratchPool.Put(sc)
}

// readBody reads r to EOF into sc.body. declared is the request's
// Content-Length (-1 when unknown); it sizes the first buffer only up to
// jsonFirstBufMax.
func (sc *jsonScratch) readBody(r io.Reader, declared int64) error {
	buf := sc.body[:0]
	if want := min(max(declared, 0), jsonFirstBufMax) + 1; int64(cap(buf)) < want {
		buf = make([]byte, 0, max(want, 512))
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			sc.body = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// decodeClassifyJSON decodes a classify body.
func decodeClassifyJSON(body []byte, sc *jsonScratch) (ClassifyRequest, error) {
	d := jsonDecoder{b: body, sc: sc}
	if err := d.request(false); err != nil {
		return ClassifyRequest{}, err
	}
	return ClassifyRequest{Records: d.records(), Proba: d.proba}, nil
}

// decodeObserveJSON decodes an observe body.
func decodeObserveJSON(body []byte, sc *jsonScratch) (ObserveRequest, error) {
	d := jsonDecoder{b: body, sc: sc}
	if err := d.request(true); err != nil {
		return ObserveRequest{}, err
	}
	// A fresh slice, never nil: decodeRecords reads nil classes as a
	// classify batch.
	classes := make([]int, len(sc.classes))
	copy(classes, sc.classes)
	return ObserveRequest{Records: d.records(), Classes: classes}, nil
}

// Keys of the two request objects, as bits of jsonDecoder.seen.
const (
	keyRecords = 1 << iota
	keyProba
	keyClasses
)

// jsonDecoder is one pass over a request body; pos is the offset of the
// next unread byte.
type jsonDecoder struct {
	b     []byte
	pos   int
	sc    *jsonScratch
	seen  int
	proba bool
}

// errorf reports a syntax error at byte offset off.
func (d *jsonDecoder) errorf(off int, format string, args ...any) error {
	return fmt.Errorf("byte %d: %s", off, fmt.Sprintf(format, args...))
}

// unexpected reports the token at d.pos when it is not what the grammar
// wants there, singling out null and the end of the body.
func (d *jsonDecoder) unexpected(want string) error {
	switch {
	case d.pos >= len(d.b):
		return d.errorf(d.pos, "unexpected end of body, want %s", want)
	case d.literal("null"):
		return d.errorf(d.pos, "null is not accepted, want %s", want)
	}
	return d.errorf(d.pos, "unexpected %q, want %s", d.b[d.pos], want)
}

// literal reports whether the body continues with s at d.pos.
func (d *jsonDecoder) literal(s string) bool {
	return len(d.b)-d.pos >= len(s) && string(d.b[d.pos:d.pos+len(s)]) == s
}

func (d *jsonDecoder) skipSpace() {
	for d.pos < len(d.b) {
		switch d.b[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// next skips whitespace and reports whether the following byte is c,
// consuming it if so.
func (d *jsonDecoder) next(c byte) bool {
	d.skipSpace()
	if d.pos < len(d.b) && d.b[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// request parses the whole body as one request object.
func (d *jsonDecoder) request(observe bool) error {
	sc := d.sc
	sc.vals, sc.ends, sc.classes = sc.vals[:0], sc.ends[:0], sc.classes[:0]
	if !d.next('{') {
		return d.unexpected("'{'")
	}
	if !d.next('}') {
		for {
			d.skipSpace()
			off := d.pos
			key, err := d.key(observe)
			if err != nil {
				return err
			}
			if d.seen&key != 0 {
				return d.errorf(off, "repeated key %s", d.b[off:d.pos])
			}
			d.seen |= key
			if !d.next(':') {
				return d.unexpected("':'")
			}
			d.skipSpace()
			switch key {
			case keyRecords:
				err = d.recordList()
			case keyProba:
				err = d.boolean()
			case keyClasses:
				err = d.classList()
			}
			if err != nil {
				return err
			}
			if d.next('}') {
				break
			}
			if !d.next(',') {
				return d.unexpected("',' or '}'")
			}
		}
	}
	d.skipSpace()
	if d.pos != len(d.b) {
		return d.errorf(d.pos, "unexpected %q after the request object", d.b[d.pos])
	}
	if observe && d.seen&keyClasses == 0 {
		return d.errorf(d.pos, `observe body has no "classes"`)
	}
	return nil
}

// key parses one object key and returns its bit. Only the exact,
// unescaped spelling of a key the endpoint accepts is a key.
func (d *jsonDecoder) key(observe bool) (int, error) {
	if d.pos >= len(d.b) || d.b[d.pos] != '"' {
		return 0, d.unexpected("a key")
	}
	start := d.pos
	end := start + 1
	for end < len(d.b) && d.b[end] != '"' && d.b[end] != '\\' {
		end++
	}
	switch {
	case end == len(d.b):
		return 0, d.errorf(start, "unterminated key")
	case d.b[end] == '\\':
		return 0, d.errorf(start, "escape sequence in key")
	}
	d.pos = end + 1
	name := d.b[start+1 : end]
	switch {
	case string(name) == "records":
		return keyRecords, nil
	case string(name) == "proba" && !observe:
		return keyProba, nil
	case string(name) == "classes" && observe:
		return keyClasses, nil
	}
	return 0, d.badKey(start, string(name), observe)
}

// badKey explains why name is not a key of the endpoint's request.
func (d *jsonDecoder) badKey(off int, name string, observe bool) error {
	other := "proba"
	if observe {
		other = "classes"
	}
	for _, k := range []string{"records", other} {
		if strings.EqualFold(name, k) {
			return d.errorf(off, "key %q matches %q only case-insensitively", name, k)
		}
	}
	return d.errorf(off, "unknown key %q", name)
}

func (d *jsonDecoder) boolean() error {
	switch {
	case d.literal("true"):
		d.proba = true
		d.pos += 4
	case d.literal("false"):
		d.proba = false
		d.pos += 5
	default:
		return d.unexpected("true or false")
	}
	return nil
}

// recordList parses [[n,…],…] into sc.vals and sc.ends.
func (d *jsonDecoder) recordList() error {
	if !d.next('[') {
		return d.unexpected("'['")
	}
	if d.next(']') {
		return nil
	}
	sc := d.sc
	for {
		if !d.next('[') {
			return d.unexpected("'[' opening a record")
		}
		if !d.next(']') {
			for {
				d.skipSpace()
				off := d.pos
				tok, _, err := d.number()
				if err != nil {
					return err
				}
				v, perr := strconv.ParseFloat(string(tok), 64)
				if perr != nil {
					return d.errorf(off, "number %s does not fit a float64", tok)
				}
				sc.vals = append(sc.vals, v)
				if d.next(']') {
					break
				}
				if !d.next(',') {
					return d.unexpected("',' or ']'")
				}
			}
		}
		sc.ends = append(sc.ends, len(sc.vals))
		if d.next(']') {
			return nil
		}
		if !d.next(',') {
			return d.unexpected("',' or ']'")
		}
	}
}

// classList parses [int,…] into sc.classes.
func (d *jsonDecoder) classList() error {
	if !d.next('[') {
		return d.unexpected("'['")
	}
	if d.next(']') {
		return nil
	}
	sc := d.sc
	for {
		d.skipSpace()
		off := d.pos
		tok, integral, err := d.number()
		if err != nil {
			return err
		}
		if !integral {
			return d.errorf(off, "class %s is not an integer", tok)
		}
		c, perr := strconv.ParseInt(string(tok), 10, 64)
		if perr != nil {
			return d.errorf(off, "class %s does not fit an int64", tok)
		}
		sc.classes = append(sc.classes, int(c))
		if d.next(']') {
			return nil
		}
		if !d.next(',') {
			return d.unexpected("',' or ']'")
		}
	}
}

// number scans one RFC 8259 number at d.pos:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. integral reports a
// token with neither fraction nor exponent.
func (d *jsonDecoder) number() (tok []byte, integral bool, err error) {
	b, start := d.b, d.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		d.pos = i
		return nil, false, d.unexpected("a number")
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		integral = false
		if j := skipDigits(b, i+1); j > i+1 {
			i = j
		} else {
			return nil, false, d.errorf(start, "number %s has no digits after '.'", b[start:i+1])
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		integral = false
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if k := skipDigits(b, j); k > j {
			i = k
		} else {
			return nil, false, d.errorf(start, "number %s has no exponent digits", b[start:j])
		}
	}
	d.pos = i
	return b[start:i], integral, nil
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// records copies the parsed values out of the scratch: one flat backing
// array, sliced per record with capacity clipped to the record. Nil when
// the body had no "records" key.
func (d *jsonDecoder) records() [][]float64 {
	if d.seen&keyRecords == 0 {
		return nil
	}
	sc := d.sc
	flat := append([]float64(nil), sc.vals...)
	out := make([][]float64, len(sc.ends))
	start := 0
	for i, end := range sc.ends {
		out[i] = flat[start:end:end]
		start = end
	}
	return out
}
