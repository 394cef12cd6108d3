package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Stored row values. The settlement pipelines' spool rows (usage and
// micropay) and the GridHash chain rows are written in one binary
// layout, bin1: a version byte, a flags byte, then the row's fields in
// the Append*/BinReader conventions above. Rows written before bin1 are
// JSON objects and stay readable forever.

// RowBin1 opens every bin1 row value. It can never start a JSON object,
// so ReadRow tells a legacy JSON row ("{...}") from a bin1 one by the
// first byte.
const RowBin1 = 0xB1

// AppendRowHeader opens a bin1 row value: the version byte, then flags.
func AppendRowHeader(buf *bytes.Buffer, flags byte) {
	buf.WriteByte(RowBin1)
	buf.WriteByte(flags)
}

// ReadRow decodes a stored row value: a legacy JSON row into row, or a
// bin1 one through read, which gets the flags byte and the reader past
// it. Flags outside flagMask, an unknown version and trailing bytes are
// refused.
func ReadRow(raw []byte, row any, flagMask byte, read func(flags byte, br *BinReader) error) error {
	if len(raw) > 0 && raw[0] == '{' {
		return json.Unmarshal(raw, row)
	}
	br := NewBinReader(raw)
	version, flags := br.U8(), br.U8()
	if br.Err() == nil && (version != RowBin1 || flags&^flagMask != 0) {
		return fmt.Errorf("unknown row format 0x%02x, flags 0x%02x", version, flags)
	}
	if err := read(flags, br); err != nil {
		return err
	}
	return br.Close()
}

// AppendTime appends an instant as its UnixNano. An instant with no
// UnixNano — before the year 1678 or after 2262 — is refused, never
// wrapped into another date.
func AppendTime(buf *bytes.Buffer, t time.Time) error {
	ns := t.UnixNano()
	if !time.Unix(0, ns).Equal(t) {
		return fmt.Errorf("wire: instant %s is outside the UnixNano range", t.Format(time.RFC3339))
	}
	AppendU64(buf, uint64(ns))
	return nil
}

// Time consumes an instant written by AppendTime. It decodes in UTC,
// Equal to the instant encoded.
func (r *BinReader) Time() time.Time { return time.Unix(0, int64(r.U64())).UTC() }
