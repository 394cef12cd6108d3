package db

import (
	"bytes"
	"fmt"
	"math"

	"gridbank/internal/wire"
)

// Binary entry-batch encoding, shared by the bin1 journal generation
// and the replica stream's binary frames (one encoder for "a batch of
// WAL entries" everywhere it crosses a boundary):
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
		switch b := r.U8(); b {
		case binOpCreateTable:
			e.Op = OpCreateTable
		case binOpPut:
			e.Op = OpPut
		case binOpDelete:
			e.Op = OpDelete
		case binOpOther:
			e.Op = Op(r.Str16())
		default:
			return nil, fmt.Errorf("db: unknown binary entry op 0x%02x", b)
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
