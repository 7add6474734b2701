package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
)

// decodeServeRequest decodes a POST /jobs body, or a persisted
// request.json, into req. It leaves req as json.Unmarshal(data, req)
// would and errs exactly when that errs, but it validates and decodes
// the body in one pass: encoding/json scans a whole body once to
// validate it and again to decode it, and a program text, whose every
// line ends in an escaped newline, takes its unquoting slow path.
//
// Each string of suspects and keys is scanned once to find its closing
// quote and validate it, then copied between its escapes into one
// allocation of the decoded size. A literal holding a \u escape or a
// byte from 0x80 up is decoded by encoding/json alone, which keeps its
// surrogate and invalid-UTF-8 replacement exact. The options object
// goes through serveRequestOptions.UnmarshalJSON, as under
// json.Unmarshal; any other field is validated and skipped.
// FuzzDecodeServeRequest pins the equivalence.
func decodeServeRequest(data []byte, req *serveRequest) error {
	d := requestDecoder{data: data}
	d.skipSpace()
	var err error
	switch d.peek() {
	case '{':
		err = d.object(req)
	case 'n':
		err = d.literal("null") // a no-op, as under json.Unmarshal
	default:
		err = d.errorf("a job request is a JSON object")
	}
	if err != nil {
		return err
	}
	d.skipSpace()
	if d.off < len(d.data) {
		return d.errorf("invalid character %q after the request object", d.data[d.off])
	}
	return nil
}

// maxRequestDepth is encoding/json's limit on nested arrays and objects.
const maxRequestDepth = 10000

// requestDecoder is the decoding state: the body and the offset of the
// next unread byte.
type requestDecoder struct {
	data []byte
	off  int
}

func (d *requestDecoder) errorf(format string, args ...any) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("unexpected end of JSON input: "+format, args...)
	}
	return fmt.Errorf("offset %d: "+format, append([]any{d.off}, args...)...)
}

// peek is the next byte, or 0 at the end of the body.
func (d *requestDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *requestDecoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// consume moves past c if it is the next byte.
func (d *requestDecoder) consume(c byte) bool {
	if d.peek() == c {
		d.off++
		return true
	}
	return false
}

func (d *requestDecoder) literal(lit string) error {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		return d.errorf("invalid literal, want %s", lit)
	}
	d.off += len(lit)
	return nil
}

// object decodes the request object at d.off. A field name matches
// exactly or, failing that, under bytes.EqualFold, as encoding/json
// matches it; a repeated field is decoded again over the first.
func (d *requestDecoder) object(req *serveRequest) error {
	d.off++ // '{'
	d.skipSpace()
	if d.consume('}') {
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.errorf("looking for the beginning of an object key")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		d.skipSpace()
		if !d.consume(':') {
			return d.errorf("after an object key")
		}
		d.skipSpace()
		switch {
		case strings.EqualFold(key, "suspects"):
			err = d.texts(&req.Suspects, "suspects")
		case strings.EqualFold(key, "keys"):
			err = d.texts(&req.Keys, "keys")
		case strings.EqualFold(key, "stream"):
			err = d.boolean(&req.Stream)
		case strings.EqualFold(key, "options"):
			start := d.off
			if err = d.skipValue(1); err == nil {
				err = req.Options.UnmarshalJSON(d.data[start:d.off])
			}
		default:
			err = d.skipValue(1)
		}
		if err != nil {
			return err
		}
		d.skipSpace()
		switch {
		case d.consume(','):
			d.skipSpace()
		case d.consume('}'):
			return nil
		default:
			return d.errorf("after an object field")
		}
	}
}

// texts decodes a []string field into *dst as encoding/json does:
// null sets nil, [] a new empty slice, and the elements of an array are
// decoded into *dst's own backing array, a null element leaving what
// that array held.
func (d *requestDecoder) texts(dst *[]string, field string) error {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
	default:
		return d.errorf("the %s field is an array of strings", field)
	}
	d.off++
	d.skipSpace()
	if d.consume(']') {
		*dst = []string{}
		return nil
	}
	s := *dst
	for i := 0; ; i++ {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			s = append(s, "")
		}
		switch d.peek() {
		case '"':
			v, err := d.str()
			if err != nil {
				return err
			}
			s[i] = v
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.errorf("the %s field is an array of strings", field)
		}
		d.skipSpace()
		switch {
		case d.consume(','):
			d.skipSpace()
		case d.consume(']'):
			*dst = s[:i+1]
			return nil
		default:
			return d.errorf("after an array element")
		}
	}
}

func (d *requestDecoder) boolean(dst *bool) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.errorf("the stream field is a boolean")
}

// Byte classes inside a string literal.
const (
	strPlain   = iota
	strQuote   // '"' ends the literal
	strEscape  // '\\' starts an escape
	strControl // below 0x20: not allowed unescaped
	strHigh    // from 0x80 up: part of a UTF-8 sequence, or invalid
)

var strClass = func() (t [256]uint8) {
	for c := 0; c < 0x20; c++ {
		t[c] = strControl
	}
	t['"'] = strQuote
	t['\\'] = strEscape
	for c := 0x80; c < len(t); c++ {
		t[c] = strHigh
	}
	return t
}()

// unescape maps the byte after a backslash to the byte a simple escape
// stands for; 0 marks a byte no simple escape starts with.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// scanString validates the string literal at d.off and moves past it.
// It returns how many bytes its simple escapes drop when decoded, and
// whether it holds a \u escape or a byte from 0x80 up.
func (d *requestDecoder) scanString() (dropped int, wide bool, err error) {
	data := d.data
	i := d.off + 1
	for {
		for i < len(data) && strClass[data[i]] == strPlain {
			i++
		}
		if i == len(data) {
			d.off = i
			return 0, false, d.errorf("in a string literal")
		}
		switch strClass[data[i]] {
		case strQuote:
			d.off = i + 1
			return dropped, wide, nil
		case strEscape:
			if i+1 < len(data) && unescape[data[i+1]] != 0 {
				dropped++
				i += 2
				continue
			}
			if i+5 < len(data) && data[i+1] == 'u' && isHex(data[i+2]) && isHex(data[i+3]) &&
				isHex(data[i+4]) && isHex(data[i+5]) {
				wide = true
				i += 6
				continue
			}
			d.off = i
			return 0, false, d.errorf("invalid escape in a string literal")
		case strControl:
			d.off = i
			return 0, false, d.errorf("invalid character %q in a string literal", data[i])
		default: // strHigh
			wide = true
			i++
		}
	}
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// str decodes the string literal at d.off. Only the decoded text is
// allocated, once, at its exact size.
func (d *requestDecoder) str() (string, error) {
	start := d.off
	dropped, wide, err := d.scanString()
	if err != nil {
		return "", err
	}
	lit := d.data[start:d.off]
	if wide {
		var s string
		err := json.Unmarshal(lit, &s)
		return s, err
	}
	body := lit[1 : len(lit)-1]
	if dropped == 0 {
		return string(body), nil
	}
	var b strings.Builder
	b.Grow(len(body) - dropped)
	for {
		i := bytes.IndexByte(body, '\\')
		if i < 0 {
			b.Write(body)
			return b.String(), nil
		}
		b.Write(body[:i])
		b.WriteByte(unescape[body[i+1]])
		body = body[i+2:]
	}
}

// skipValue validates the JSON value at d.off, nested depth containers
// deep, and moves past it.
func (d *requestDecoder) skipValue(depth int) error {
	var open []byte // the closing bytes of the containers open inside the value
	for {
		// A value starts here.
		switch c := d.peek(); {
		case c == '{' || c == '[':
			if depth+len(open) >= maxRequestDepth {
				return d.errorf("exceeded max depth")
			}
			d.off++
			d.skipSpace()
			if c == '{' {
				if d.consume('}') {
					break
				}
				open = append(open, '}')
				if err := d.fieldName(); err != nil {
					return err
				}
				continue
			}
			if d.consume(']') {
				break
			}
			open = append(open, ']')
			continue
		case c == '"':
			if _, _, err := d.scanString(); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			if err := d.number(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.errorf("looking for the beginning of a value")
		}
		// A value ended: close containers until the next one starts.
		for {
			if len(open) == 0 {
				return nil
			}
			d.skipSpace()
			end := open[len(open)-1]
			if d.consume(end) {
				open = open[:len(open)-1]
				continue
			}
			if !d.consume(',') {
				return d.errorf("after a value in an array or object")
			}
			d.skipSpace()
			if end == '}' {
				if err := d.fieldName(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// fieldName validates an object key and its colon, leaving d.off at
// the field's value.
func (d *requestDecoder) fieldName() error {
	if d.peek() != '"' {
		return d.errorf("looking for the beginning of an object key")
	}
	if _, _, err := d.scanString(); err != nil {
		return err
	}
	d.skipSpace()
	if !d.consume(':') {
		return d.errorf("after an object key")
	}
	d.skipSpace()
	return nil
}

// number validates the JSON number at d.off and moves past it.
func (d *requestDecoder) number() error {
	digits := func() bool {
		start := d.off
		for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
			d.off++
		}
		return d.off > start
	}
	d.consume('-')
	if !d.consume('0') && !digits() {
		return d.errorf("in a numeric literal")
	}
	if d.consume('.') && !digits() {
		return d.errorf("after a decimal point in a numeric literal")
	}
	if d.consume('e') || d.consume('E') {
		if !d.consume('+') {
			d.consume('-')
		}
		if !digits() {
			return d.errorf("in a numeric literal's exponent")
		}
	}
	return nil
}
