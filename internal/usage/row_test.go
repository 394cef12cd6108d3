package usage

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/wire"
)

// spoolCases are rows of every shape the pipeline writes: pending,
// pinned, parked, and both with and without evidence.
func spoolCases() map[string]*spoolRow {
	row := func(edit func(r *spoolRow)) *spoolRow {
		r := &spoolRow{ID: "job-42", Drawer: "01-0001-00000003", Recipient: "01-0001-00000007",
			Amount: currency.MustParse("1.25"), RUR: []byte(`{"job":{"job_id":"job-42"}}`),
			State: statePending, Enqueued: time.Date(2026, 10, 1, 12, 0, 0, 123456789, time.UTC)}
		edit(r)
		return r
	}
	return map[string]*spoolRow{
		"pending":            row(func(*spoolRow) {}),
		"without RUR":        row(func(r *spoolRow) { r.RUR = nil }),
		"zero amount":        row(func(r *spoolRow) { r.Amount = 0 }),
		"pinned":             row(func(r *spoolRow) { r.PinTxID = 42 }),
		"parked with reason": row(func(r *spoolRow) { r.Park("insufficient funds: spendable 0 < 1.25") }),
		"pinned and parked": row(func(r *spoolRow) {
			r.PinTxID = 42
			r.Park("recipient 01-0001-00000007 is closed")
		}),
	}
}

func TestSpoolRowCodec(t *testing.T) {
	for name, r := range spoolCases() {
		t.Run(name, func(t *testing.T) {
			raw, err := encodeSpoolRow(r)
			if err != nil {
				t.Fatal(err)
			}
			if raw[0] != wire.RowBin1 {
				t.Fatalf("value opens with 0x%02x, not the bin1 version byte", raw[0])
			}
			if n := len(raw) - len(r.RUR); name == "pending" && n > 64 {
				t.Errorf("pending spool value is RUR + %d B, want ≤ 64", n)
			}
			got, err := decodeSpoolRow(r.ID, raw)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, r) {
				t.Errorf("bin1 round trip:\n got %+v\nwant %+v", got, r)
			}
			legacy, err := json.Marshal(r) // what the parent wrote
			if err != nil {
				t.Fatal(err)
			}
			if got, err = decodeSpoolRow(r.ID, legacy); err != nil || !reflect.DeepEqual(got, r) {
				t.Errorf("legacy JSON %s:\n got %+v, %v\nwant %+v", legacy, got, err, r)
			}
		})
	}
}

func TestSpoolRowCodecRefuses(t *testing.T) {
	r := spoolCases()["pinned"]
	good, _ := encodeSpoolRow(r)
	pinAt := len(good) - 8
	for name, fn := range map[string]func() error{
		"pin flag with pin 0": func() error {
			_, err := decodeSpoolRow(r.ID, append(good[:pinAt:pinAt], make([]byte, 8)...))
			return err
		},
		"unknown version": func() error { _, err := decodeSpoolRow(r.ID, append([]byte{'['}, good[1:]...)); return err },
		"unknown flags": func() error {
			_, err := decodeSpoolRow(r.ID, append([]byte{wire.RowBin1, 0x04}, good[2:]...))
			return err
		},
		"truncated":      func() error { _, err := decodeSpoolRow(r.ID, good[:len(good)-1]); return err },
		"trailing bytes": func() error { _, err := decodeSpoolRow(r.ID, append(good, 0)); return err },
		"empty value":    func() error { _, err := decodeSpoolRow(r.ID, nil); return err },
	} {
		if fn() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzSpoolRow: decoding arbitrary bytes never panics, a bin1 row that
// decodes re-encodes to the same bytes, and a legacy row re-encodes to
// bin1 that is a fixpoint.
func FuzzSpoolRow(f *testing.F) {
	for _, r := range spoolCases() {
		raw, _ := encodeSpoolRow(r)
		legacy, _ := json.Marshal(r)
		f.Add(r.ID, raw)
		f.Add(r.ID, legacy)
	}
	f.Fuzz(func(t *testing.T, id string, raw []byte) {
		row, err := decodeSpoolRow(id, raw)
		if err != nil {
			return
		}
		legacy := raw[0] == '{'
		out, err := encodeSpoolRow(row)
		if legacy && err != nil {
			return // a legacy row no writer could have produced
		}
		if err != nil || !legacy && !bytes.Equal(out, raw) {
			t.Fatalf("bin1 row %x re-encodes to %x, %v", raw, out, err)
		}
		again, err := decodeSpoolRow(id, out)
		if err != nil {
			t.Fatalf("re-encoded row %x does not decode: %v", out, err)
		}
		if out2, err := encodeSpoolRow(again); err != nil || !bytes.Equal(out2, out) || out[0] != wire.RowBin1 {
			t.Fatalf("bin1 row %x re-encodes to %x, %v", out, out2, err)
		}
	})
}
