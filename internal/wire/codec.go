package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Codec names, as spoken in the negotiation handshake (Request.Codecs /
// Response.Codec). "json" is the seed wire format; "bin1" is the
// length-prefixed binary format introduced behind the version gate.
const (
	CodecJSON = "json"
	CodecBin1 = "bin1"
)

// ErrCodecMismatch reports a frame whose payload belongs to a different
// codec than the reader negotiated — a binary frame under a JSON
// reader, or vice versa. It is typed so operators and tests can tell a
// codec skew apart from garbage on the wire.
var ErrCodecMismatch = errors.New("wire: codec mismatch")

// Codec is the pluggable frame encoding: the seam the first-frame
// negotiation switches over, and the seam future codecs (compression,
// checksums) plug into. All three methods speak whole frames — the
// 4-byte big-endian length header followed by the codec's payload — so
// MaxFrame and the DoS checks are uniform across codecs.
//
// AppendFrame appends one frame to buf in place (so a batch of frames
// flushes with a single Write); on error buf is restored to its prior
// length. Encode frames and writes one message through a pooled buffer
// (one syscall, one TLS record). Decode reads exactly one frame into
// out, which must be *Request or *Response for the binary codec.
type Codec interface {
	Name() string
	AppendFrame(buf *bytes.Buffer, msg any) error
	Encode(w io.Writer, msg any) error
	Decode(r io.Reader, out any) error
}

// JSON is the seed codec: frames carry a JSON object. Its output is
// byte-identical to the pre-codec wire format.
var JSON Codec = jsonCodec{}

// Bin1 is the binary codec: frames carry a fixed-layout header (magic,
// flags, id, op index or string, optional deadline/trace/negotiation
// fields) and an opaque body, with no per-field JSON cost.
var Bin1 Codec = binCodec{}

// CodecByName resolves a negotiated codec name.
func CodecByName(name string) (Codec, bool) {
	switch name {
	case CodecJSON:
		return JSON, true
	case CodecBin1:
		return Bin1, true
	}
	return nil, false
}

// NegotiateCodec picks the first offered codec that the receiver
// supports, mirroring the client's preference order. Returns false when
// nothing matches (the connection then stays on the seed JSON codec).
func NegotiateCodec(offered, supported []string) (Codec, bool) {
	for _, name := range offered {
		c, ok := CodecByName(name)
		if !ok {
			continue
		}
		for _, s := range supported {
			if s == name {
				return c, true
			}
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------
// JSON codec (seed format)
// ---------------------------------------------------------------------

type jsonCodec struct{}

func (jsonCodec) Name() string { return CodecJSON }

// AppendFrame appends the 4-byte length header and the JSON payload,
// produced in place. The bytes are identical to the seed protocol's.
func (jsonCodec) AppendFrame(buf *bytes.Buffer, msg any) error {
	start := buf.Len()
	buf.Write([]byte{0, 0, 0, 0}) // header placeholder, patched below
	enc := json.NewEncoder(buf)
	if err := enc.Encode(msg); err != nil {
		buf.Truncate(start)
		return fmt.Errorf("wire: encode: %w", err)
	}
	// Encoder appends a newline Marshal would not; strip it to keep the
	// frame bytes identical to the seed protocol's.
	if b := buf.Bytes(); len(b) > start+4 && b[len(b)-1] == '\n' {
		buf.Truncate(len(b) - 1)
	}
	n := buf.Len() - start - 4
	if n > MaxFrame {
		buf.Truncate(start)
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(buf.Bytes()[start:start+4], uint32(n))
	return nil
}

func (c jsonCodec) Encode(w io.Writer, msg any) error { return encodeFrame(c, w, msg) }

func (jsonCodec) Decode(r io.Reader, out any) error {
	return readFramePayload(r, func(payload []byte) error {
		if payload[0] == binMagicRequest || payload[0] == binMagicResponse {
			return fmt.Errorf("%w: bin1 frame read by json codec", ErrCodecMismatch)
		}
		if err := json.Unmarshal(payload, out); err != nil {
			return fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		return nil
	})
}

// encodeFrame frames msg through c into a pooled buffer and writes it
// with a single Write. Shared by both codecs' Encode.
func encodeFrame(c Codec, w io.Writer, msg any) error {
	buf := encPool.Get().(*bytes.Buffer)
	buf.Reset()
	err := c.AppendFrame(buf, msg)
	if err == nil {
		_, err = w.Write(buf.Bytes())
	}
	if buf.Cap() <= pooledMax {
		encPool.Put(buf)
	}
	return err
}

// readFramePayload reads one length-prefixed frame into a pooled buffer
// and hands the payload to parse. The payload is only valid during the
// call: parse must copy everything it keeps.
func readFramePayload(r io.Reader, parse func(payload []byte) error) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err // io.EOF passes through for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if n == 0 {
		return fmt.Errorf("%w: zero-length frame", ErrBadFrame)
	}
	bp := readPool.Get().(*[]byte)
	if uint32(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:n]
	defer func() {
		if cap(*bp) <= pooledMax {
			readPool.Put(bp)
		}
	}()
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("%w: truncated body: %v", ErrBadFrame, err)
	}
	return parse(buf)
}

// ---------------------------------------------------------------------
// bin1 codec
// ---------------------------------------------------------------------

// bin1 frame payload layout (after the shared 4-byte length header):
//
//	request:  0xB1 flags:u8 id:u64
//	          op    — u16 table index, or (flag) u16 len + string
//	          [deadline_ms:i64] [trace:u16-str]
//	          [codecs: count:u8 × (u8-str)]
//	          body  — u32 len + raw bytes (len 0 ⇒ no body)
//	response: 0xB2 flags:u8 id:u64
//	          [error:u16-str] [code:u16-str] [codec:u8-str]
//	          body  — u32 len + raw bytes (len 0 ⇒ no body)
//
// All integers are big-endian, matching the frame header. The magic
// bytes can never open a JSON payload ('{' is 0x7B), which is what
// makes a codec mismatch detectable and typed on both sides.
const (
	binMagicRequest  = 0xB1
	binMagicResponse = 0xB2
)

// Request flag bits.
const (
	reqFlagDeadline = 1 << 0
	reqFlagTrace    = 1 << 1
	reqFlagCodecs   = 1 << 2
	reqFlagOpString = 1 << 3 // op carried as a string, not a table index
)

// Response flag bits.
const (
	respFlagOK    = 1 << 0
	respFlagError = 1 << 1
	respFlagCode  = 1 << 2
	respFlagCodec = 1 << 3
)

// binOps is the frozen operation table of the bin1 codec: the u16 op
// index on the wire is an offset into this slice. The codec name pins
// the table — any reordering or removal is a new codec name, never an
// edit. Ops outside the table (custom RegisterOp handlers) travel in
// the op-string form, losing only the few bytes the index saves.
var binOps = []string{
	"Ping",
	"CreateAccount",
	"AccountDetails",
	"UpdateAccount",
	"AccountStatement",
	"CheckFunds",
	"DirectTransfer",
	"RequestCheque",
	"RedeemCheque",
	"RequestChain",
	"RedeemChain",
	"ReleaseCheque",
	"ReleaseChain",
	"Admin.Deposit",
	"Admin.Withdraw",
	"Admin.ChangeCreditLimit",
	"Admin.CancelTransfer",
	"Admin.CloseAccount",
	"Admin.ListAccounts",
	"Replica.Status",
	"Shard.Map",
	"Metrics.Snapshot",
	"Usage.Submit",
	"Usage.Status",
	"Usage.Drain",
	"Micropay.Submit",
	"Micropay.Status",
	"Micropay.Drain",
	"Repl.Hello",
}

var binOpIndex = func() map[string]uint16 {
	m := make(map[string]uint16, len(binOps))
	for i, op := range binOps {
		m[op] = uint16(i)
	}
	return m
}()

type binCodec struct{}

func (binCodec) Name() string { return CodecBin1 }

func (binCodec) AppendFrame(buf *bytes.Buffer, msg any) error {
	start := buf.Len()
	buf.Write([]byte{0, 0, 0, 0}) // length header, patched below
	var err error
	switch m := msg.(type) {
	case *Request:
		err = appendBinRequest(buf, m)
	case *Response:
		err = appendBinResponse(buf, m)
	default:
		err = fmt.Errorf("wire: bin1 cannot encode %T", msg)
	}
	if err != nil {
		buf.Truncate(start)
		return err
	}
	n := buf.Len() - start - 4
	if n > MaxFrame {
		buf.Truncate(start)
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(buf.Bytes()[start:start+4], uint32(n))
	return nil
}

func (c binCodec) Encode(w io.Writer, msg any) error { return encodeFrame(c, w, msg) }

func (binCodec) Decode(r io.Reader, out any) error {
	return readFramePayload(r, func(payload []byte) error {
		switch o := out.(type) {
		case *Request:
			return decodeBinRequest(payload, o)
		case *Response:
			return decodeBinResponse(payload, o)
		default:
			return fmt.Errorf("wire: bin1 cannot decode into %T", out)
		}
	})
}

func appendBinRequest(buf *bytes.Buffer, req *Request) error {
	var flags byte
	opIdx, opIndexed := binOpIndex[req.Op]
	if !opIndexed {
		flags |= reqFlagOpString
	}
	if req.DeadlineMS != 0 {
		flags |= reqFlagDeadline
	}
	if req.Trace != "" {
		flags |= reqFlagTrace
	}
	if len(req.Codecs) != 0 {
		flags |= reqFlagCodecs
	}
	buf.WriteByte(binMagicRequest)
	buf.WriteByte(flags)
	AppendU64(buf, req.ID)
	if opIndexed {
		AppendU16(buf, opIdx)
	} else if err := AppendStr16(buf, req.Op); err != nil {
		return err
	}
	if flags&reqFlagDeadline != 0 {
		AppendU64(buf, uint64(req.DeadlineMS))
	}
	if flags&reqFlagTrace != 0 {
		if err := AppendStr16(buf, req.Trace); err != nil {
			return err
		}
	}
	if flags&reqFlagCodecs != 0 {
		if len(req.Codecs) > math.MaxUint8 {
			return fmt.Errorf("wire: bin1: %d codecs offered", len(req.Codecs))
		}
		buf.WriteByte(byte(len(req.Codecs)))
		for _, name := range req.Codecs {
			if err := AppendStr8(buf, name); err != nil {
				return err
			}
		}
	}
	return AppendBlob32(buf, req.Body)
}

func decodeBinRequest(payload []byte, req *Request) error {
	r := NewBinReader(payload)
	if magic := r.U8(); magic != binMagicRequest {
		if magic == '{' {
			return fmt.Errorf("%w: json frame read by bin1 codec", ErrCodecMismatch)
		}
		return fmt.Errorf("%w: bad bin1 request magic 0x%02x", ErrBadFrame, magic)
	}
	flags := r.U8()
	*req = Request{ID: r.U64()}
	if flags&reqFlagOpString != 0 {
		req.Op = r.Str16()
	} else {
		idx := r.U16()
		if int(idx) < len(binOps) {
			req.Op = binOps[idx]
		} else if r.Err() == nil {
			return fmt.Errorf("%w: bin1 op index %d out of table", ErrBadFrame, idx)
		}
	}
	if flags&reqFlagDeadline != 0 {
		req.DeadlineMS = int64(r.U64())
	}
	if flags&reqFlagTrace != 0 {
		req.Trace = r.Str16()
	}
	if flags&reqFlagCodecs != 0 {
		n := int(r.U8())
		for i := 0; i < n && r.Err() == nil; i++ {
			req.Codecs = append(req.Codecs, r.Str8())
		}
	}
	req.Body = r.Blob32()
	return r.Close()
}

func appendBinResponse(buf *bytes.Buffer, resp *Response) error {
	var flags byte
	if resp.OK {
		flags |= respFlagOK
	}
	if resp.Error != "" {
		flags |= respFlagError
	}
	if resp.Code != "" {
		flags |= respFlagCode
	}
	if resp.Codec != "" {
		flags |= respFlagCodec
	}
	buf.WriteByte(binMagicResponse)
	buf.WriteByte(flags)
	AppendU64(buf, resp.ID)
	if flags&respFlagError != 0 {
		if err := AppendStr16(buf, resp.Error); err != nil {
			return err
		}
	}
	if flags&respFlagCode != 0 {
		if err := AppendStr16(buf, resp.Code); err != nil {
			return err
		}
	}
	if flags&respFlagCodec != 0 {
		if err := AppendStr8(buf, resp.Codec); err != nil {
			return err
		}
	}
	return AppendBlob32(buf, resp.Body)
}

func decodeBinResponse(payload []byte, resp *Response) error {
	r := NewBinReader(payload)
	if magic := r.U8(); magic != binMagicResponse {
		if magic == '{' {
			return fmt.Errorf("%w: json frame read by bin1 codec", ErrCodecMismatch)
		}
		return fmt.Errorf("%w: bad bin1 response magic 0x%02x", ErrBadFrame, magic)
	}
	flags := r.U8()
	*resp = Response{ID: r.U64(), OK: flags&respFlagOK != 0}
	if flags&respFlagError != 0 {
		resp.Error = r.Str16()
	}
	if flags&respFlagCode != 0 {
		resp.Code = r.Str16()
	}
	if flags&respFlagCodec != 0 {
		resp.Codec = r.Str8()
	}
	resp.Body = r.Blob32()
	return r.Close()
}

// ---------------------------------------------------------------------
// binary primitives
// ---------------------------------------------------------------------

// The Append* helpers below are the writing half of the binary
// toolkit; BinReader is the reading half. They back the bin1 frame
// codec here and the binary body/journal encoders in core, replica
// and db, so every hand-rolled layout shares one set of conventions
// (big-endian, length-prefixed, len-0 blob = nil).

// AppendU16 appends a big-endian uint16.
func AppendU16(buf *bytes.Buffer, v uint16) {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	buf.Write(b[:])
}

// AppendU32 appends a big-endian uint32.
func AppendU32(buf *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	buf.Write(b[:])
}

// AppendU64 appends a big-endian uint64.
func AppendU64(buf *bytes.Buffer, v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	buf.Write(b[:])
}

// AppendStr8 appends a u8-length-prefixed string.
func AppendStr8(buf *bytes.Buffer, s string) error {
	if len(s) > math.MaxUint8 {
		return fmt.Errorf("wire: binary string field exceeds %d bytes", math.MaxUint8)
	}
	buf.WriteByte(byte(len(s)))
	buf.WriteString(s)
	return nil
}

// AppendStr16 appends a u16-length-prefixed string.
func AppendStr16(buf *bytes.Buffer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("wire: binary string field exceeds %d bytes", math.MaxUint16)
	}
	AppendU16(buf, uint16(len(s)))
	buf.WriteString(s)
	return nil
}

// AppendBlob32 appends a u32-length-prefixed byte blob. Length zero
// doubles as "absent": BinReader.Blob32 decodes it to nil, the same
// way omitempty drops an empty field from a JSON frame.
func AppendBlob32(buf *bytes.Buffer, b []byte) error {
	if uint64(len(b)) > math.MaxUint32 {
		return fmt.Errorf("wire: %d-byte blob exceeds u32 length", len(b))
	}
	AppendU32(buf, uint32(len(b)))
	buf.Write(b)
	return nil
}

// AppendUvarint appends v as an unsigned LEB128 varint (1 byte below
// 128): the width of the compact journal record's counts and lengths.
func AppendUvarint(buf *bytes.Buffer, v uint64) {
	buf.Write(binary.AppendUvarint(buf.AvailableBuffer(), v))
}

// AppendVarBytes appends b behind its uvarint length.
func AppendVarBytes(buf *bytes.Buffer, b []byte) {
	AppendUvarint(buf, uint64(len(b)))
	buf.Write(b)
}

// AppendVarStr appends s behind its uvarint length.
func AppendVarStr(buf *bytes.Buffer, s string) {
	AppendUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

// BinReader is a cursor over a binary payload with a sticky error: the
// accessors return zero values after the first short read, and Close
// reports it (or trailing garbage) once at the end. It backs the bin1
// frame decoder and the binary body/journal codecs in core and db.
// Byte-slice accessors copy out of the payload, which is pooled scratch
// on every read path.
type BinReader struct {
	b   []byte
	err error
}

// NewBinReader wraps a payload.
func NewBinReader(b []byte) *BinReader { return &BinReader{b: b} }

func (r *BinReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated binary payload", ErrBadFrame)
	}
}

// U8 consumes one byte.
func (r *BinReader) U8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// U16 consumes a big-endian uint16.
func (r *BinReader) U16() uint16 {
	if r.err != nil || len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

// U32 consumes a big-endian uint32.
func (r *BinReader) U32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

// U64 consumes a big-endian uint64.
func (r *BinReader) U64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *BinReader) take(n int) []byte {
	if r.err != nil || len(r.b) < n {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// Uvarint consumes an unsigned varint (AppendUvarint). A padded
// encoding (a last byte of zero after the first) is refused: every value
// has one encoding, so a decoded value re-encodes to its own bytes.
func (r *BinReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// varTake consumes the bytes behind a uvarint length, uncopied.
func (r *BinReader) varTake() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	return r.take(int(n))
}

// VarStr consumes a uvarint-length-prefixed string (AppendVarStr).
func (r *BinReader) VarStr() string { return string(r.varTake()) }

// VarBytes consumes a uvarint-length-prefixed byte string, copied out
// of the payload. Length zero yields nil, as Blob32 does.
func (r *BinReader) VarBytes() []byte {
	if b := r.varTake(); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

// Str8 consumes a u8-length-prefixed string.
func (r *BinReader) Str8() string { return string(r.take(int(r.U8()))) }

// Str16 consumes a u16-length-prefixed string.
func (r *BinReader) Str16() string { return string(r.take(int(r.U16()))) }

// Blob32 consumes a u32-length-prefixed byte blob, copied out of the
// payload. Length zero yields nil (the "absent" encoding).
func (r *BinReader) Blob32() []byte {
	n := r.U32()
	if n == 0 || r.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	return append([]byte(nil), r.take(int(n))...)
}

// Err reports the first short read, if any.
func (r *BinReader) Err() error { return r.err }

// Len returns the number of unconsumed bytes.
func (r *BinReader) Len() int { return len(r.b) }

// Rest returns the unconsumed remainder (no copy). The caller owns
// interpreting it; Close must not be used afterwards.
func (r *BinReader) Rest() []byte {
	v := r.b
	r.b = nil
	return v
}

// Close reports the first short read, or trailing garbage if the
// payload was not fully consumed.
func (r *BinReader) Close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in binary payload", ErrBadFrame, len(r.b))
	}
	return nil
}

// ---------------------------------------------------------------------
// binary bodies
// ---------------------------------------------------------------------

// BinBodyMagic opens a binary-encoded body payload. It is not a valid
// first byte of any JSON value, so Decode can sniff a body's codec
// without out-of-band state and the server's dispatch switch needs no
// changes for negotiated connections.
const BinBodyMagic = 0xBB

// BinaryBody is implemented by the hot-path request/response payloads
// (DirectTransfer, CheckFunds, Usage.Submit, Micropay.Submit, replica
// entry batches) that have a hand-rolled binary form. The encoded body
// is [BinBodyMagic][tag][payload]; the tag namespaces the payload so a
// mis-routed body fails typed instead of misparsing.
type BinaryBody interface {
	// BinaryBodyTag identifies the concrete type (unique per type).
	BinaryBodyTag() byte
	// AppendBinaryBody appends the payload (everything after the tag).
	AppendBinaryBody(buf *bytes.Buffer) error
	// DecodeBinaryBody parses a payload produced by AppendBinaryBody.
	// The input is pooled scratch: implementations must copy what they
	// keep (BinReader's accessors already do).
	DecodeBinaryBody(payload []byte) error
}

// EncodeWith marshals a body for a connection speaking codec c: the
// binary form for BinaryBody implementors when c is a binary codec,
// JSON otherwise. A nil or JSON codec always yields seed-identical
// JSON bytes.
func EncodeWith(c Codec, v any) (json.RawMessage, error) {
	if c != nil && c.Name() == CodecBin1 {
		if bb, ok := v.(BinaryBody); ok {
			return EncodeBinaryBody(bb)
		}
	}
	return Encode(v)
}

// EncodeBinaryBody marshals v in its binary body form.
func EncodeBinaryBody(v BinaryBody) (json.RawMessage, error) {
	var buf bytes.Buffer
	buf.WriteByte(BinBodyMagic)
	buf.WriteByte(v.BinaryBodyTag())
	if err := v.AppendBinaryBody(&buf); err != nil {
		return nil, fmt.Errorf("wire: encode binary body: %w", err)
	}
	return buf.Bytes(), nil
}
