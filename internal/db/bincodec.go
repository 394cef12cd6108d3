package db

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"gridbank/internal/wire"
)

// Fixed-width binary entry-batch encoding: the replica stream's binary
// frames, and the journal records (magic 0xBE) older binaries wrote:
//
//	count:u32 × ( seq:u64 op:u8 table:u16-str key:u16-str value:u32-blob )
//
// The op byte compresses the three built-in operations; 0 escapes to a
// u16-length string for any future op. Integers are big-endian. A
// zero-length value decodes to nil, matching what a JSON round trip of
// an omitempty field produces.
const (
	binOpOther       = 0
	binOpCreateTable = 1
	binOpPut         = 2
	binOpDelete      = 3
)

func binOpByte(op Op) byte {
	switch op {
	case OpCreateTable:
		return binOpCreateTable
	case OpPut:
		return binOpPut
	case OpDelete:
		return binOpDelete
	}
	return binOpOther
}

// binOp decodes an op byte; other reads the name an escaped op spells.
func binOp(b byte, other func() string) (Op, error) {
	switch b {
	case binOpCreateTable:
		return OpCreateTable, nil
	case binOpPut:
		return OpPut, nil
	case binOpDelete:
		return OpDelete, nil
	case binOpOther:
		return Op(other()), nil
	}
	return "", fmt.Errorf("db: unknown binary entry op 0x%02x", b)
}

// AppendEntriesBinary appends the binary encoding of an entry batch.
func AppendEntriesBinary(buf *bytes.Buffer, entries []Entry) error {
	if len(entries) > math.MaxUint32 {
		return fmt.Errorf("db: %d entries in one batch", len(entries))
	}
	appendU32(buf, uint32(len(entries)))
	for i := range entries {
		e := &entries[i]
		appendU64(buf, e.Seq)
		b := binOpByte(e.Op)
		buf.WriteByte(b)
		if b == binOpOther {
			if err := appendStr16(buf, string(e.Op)); err != nil {
				return err
			}
		}
		if err := appendStr16(buf, e.Table); err != nil {
			return err
		}
		if err := appendStr16(buf, e.Key); err != nil {
			return err
		}
		if len(e.Value) > math.MaxUint32 {
			return fmt.Errorf("db: %d-byte value in entry %d", len(e.Value), e.Seq)
		}
		appendU32(buf, uint32(len(e.Value)))
		buf.Write(e.Value)
	}
	return nil
}

// DecodeEntriesBinary parses a payload produced by AppendEntriesBinary.
// The payload may be pooled scratch: everything kept is copied.
func DecodeEntriesBinary(payload []byte) ([]Entry, error) {
	return decodeEntriesBinary(payload, nil)
}

// decodeEntriesBinary is DecodeEntriesBinary; when sizes is non-nil it
// also gets each entry's encoded size.
func decodeEntriesBinary(payload []byte, sizes *[]int) ([]Entry, error) {
	r := wire.NewBinReader(payload)
	n := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Cap the pre-allocation: n is attacker-/corruption-controlled.
	entries := make([]Entry, 0, min(int(n), 4096))
	for i := uint32(0); i < n; i++ {
		start := r.Len()
		var e Entry
		e.Seq = r.U64()
		var err error
		if e.Op, err = binOp(r.U8(), r.Str16); err != nil {
			return nil, err
		}
		e.Table = r.Str16()
		e.Key = r.Str16()
		e.Value = r.Blob32()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if sizes != nil {
			*sizes = append(*sizes, start-r.Len())
		}
		entries = append(entries, e)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return entries, nil
}

// Compact entry batches: the payload of a journal record under
// compactRecordMagic, the bin1 journal generation's record since the
// row formats moved to bin1 (replica frames keep the fixed-width
// layout above, which is negotiated on the wire):
//
//	count:uvarint × ( seq_delta:uvarint op:u8 [op:vstr — op 0 only]
//	                  table_slot:uvarint [table:vstr — slot 0 only]
//	                  key:vstr value:vbytes )
//
// vstr/vbytes are uvarint-length-prefixed. seq_delta is the entry's
// seq less the previous entry's (less 0 for the first): a batch's seqs
// are consecutive, so every entry after the first spends one byte on
// it. table_slot names the record's n-th distinct table, counting
// from 1; slot 0 spells the name out and assigns it the next slot.
// The dictionary is per record, so every record decodes on its own.
func appendEntriesCompact(buf *bytes.Buffer, entries []Entry) error {
	wire.AppendUvarint(buf, uint64(len(entries)))
	var tables []string
	var prev uint64
	for i := range entries {
		e := &entries[i]
		if e.Seq < prev {
			return fmt.Errorf("db: entry seq %d after %d in one batch", e.Seq, prev)
		}
		wire.AppendUvarint(buf, e.Seq-prev)
		prev = e.Seq
		b := binOpByte(e.Op)
		buf.WriteByte(b)
		if b == binOpOther {
			wire.AppendVarStr(buf, string(e.Op))
		}
		if slot := slices.Index(tables, e.Table); slot >= 0 {
			wire.AppendUvarint(buf, uint64(slot+1))
		} else {
			buf.WriteByte(0)
			wire.AppendVarStr(buf, e.Table)
			tables = append(tables, e.Table)
		}
		wire.AppendVarStr(buf, e.Key)
		wire.AppendVarBytes(buf, e.Value)
	}
	return nil
}

// decodeEntriesCompact parses a payload produced by
// appendEntriesCompact; when sizes is non-nil it also gets each
// entry's encoded size (a table name counts toward the entry that
// spells it out). The payload may be pooled scratch: everything kept
// is copied.
func decodeEntriesCompact(payload []byte, sizes *[]int) ([]Entry, error) {
	r := wire.NewBinReader(payload)
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, min(n, 4096)) // n is corruption-controlled
	var tables []string
	var seq uint64
	for i := uint64(0); i < n; i++ {
		start := r.Len()
		var e Entry
		delta := r.Uvarint()
		if seq+delta < seq {
			return nil, fmt.Errorf("db: compact entry seq overflows")
		}
		seq += delta
		e.Seq = seq
		var err error
		if e.Op, err = binOp(r.U8(), r.VarStr); err != nil {
			return nil, err
		}
		if slot := r.Uvarint(); slot == 0 {
			e.Table = r.VarStr()
			tables = append(tables, e.Table)
		} else if slot <= uint64(len(tables)) {
			e.Table = tables[slot-1]
		} else if r.Err() == nil {
			return nil, fmt.Errorf("db: compact entry names table slot %d of %d", slot, len(tables))
		}
		e.Key = r.VarStr()
		e.Value = r.VarBytes()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if sizes != nil {
			*sizes = append(*sizes, start-r.Len())
		}
		entries = append(entries, e)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return entries, nil
}

// Local append helpers (db avoids exporting these from wire's frame
// layer; the byte layout is trivial and the duplication is three
// one-liners).

func appendU32(buf *bytes.Buffer, v uint32) {
	buf.Write([]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

func appendU64(buf *bytes.Buffer, v uint64) {
	buf.Write([]byte{
		byte(v >> 56), byte(v >> 48), byte(v >> 40), byte(v >> 32),
		byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v),
	})
}

func appendStr16(buf *bytes.Buffer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("db: string field exceeds %d bytes", math.MaxUint16)
	}
	buf.Write([]byte{byte(len(s) >> 8), byte(len(s))})
	buf.WriteString(s)
	return nil
}
