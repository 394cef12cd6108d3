package micropay

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/payment"
	"gridbank/internal/wire"
)

var rowEpoch = time.Date(2026, 10, 1, 12, 0, 0, 123456789, time.UTC)

func fill(b byte) []byte { return bytes.Repeat([]byte{b}, 32) }

// spoolCases are rows of every shape the pipeline writes — a per-chain
// row holding many claims, with evidence, parked, under a serial with a
// slash — and of every shape a legacy "<serial>/<index>" row takes,
// including one older than the fold.
func spoolCases() map[string]*spoolRow {
	const serial = "o_t4hOZ582btUlTyWWY9vA" // what payment.NewChain mints
	row := func(edit func(r *spoolRow)) *spoolRow {
		r := &spoolRow{Key: serial, Serial: serial, Index: 160, Word: fill(7), Claims: 16,
			State: statePending, Enqueued: rowEpoch}
		edit(r)
		return r
	}
	legacy := func(edit func(r *spoolRow)) *spoolRow {
		return row(func(r *spoolRow) {
			r.Key, r.Drawer, r.Payee = legacySpoolKey(serial, 160), "01-0001-00000003", "01-0001-00000007"
			edit(r)
		})
	}
	rur := func(r *spoolRow) { r.RUR = []byte(`{"job":{"job_id":"j-1"}}`) }
	park := func(r *spoolRow) { r.Park("micropay: chain is not outstanding: chain is released") }
	return map[string]*spoolRow{
		"pending":             row(func(*spoolRow) {}),
		"with RUR":            row(rur),
		"parked with reason":  row(park),
		"serial with a slash": row(func(r *spoolRow) { r.Serial, r.Key = "a/b", "a/b" }),
		"claims absent":       legacy(func(r *spoolRow) { r.Claims = 0 }),
		"legacy pending":      legacy(func(*spoolRow) {}),
		"legacy with RUR":     legacy(rur),
		"legacy parked":       legacy(park),
		"legacy serial with a slash": legacy(func(r *spoolRow) {
			r.Serial, r.Key = "a/b", legacySpoolKey("a/b", 160)
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
			if perChain := r.Key == r.Serial; perChain != (raw[1]&spoolChain != 0) {
				t.Fatalf("per-chain flag in 0x%02x, want %v", raw[1], perChain)
			}
			if name == "pending" && len(raw) > 50 {
				t.Errorf("pay-as-you-go spool value is %d B, want ≤ 50", len(raw))
			}
			got, err := decodeSpoolRow(r.Key, raw)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, r) {
				t.Errorf("bin1 round trip:\n got %+v\nwant %+v", got, r)
			}
			if want := max(r.Claims, 1); got.claims() != want {
				t.Errorf("row stands for %d claims, want %d", got.claims(), want)
			}
			if r.Key == r.Serial {
				return // per-chain rows were never JSON
			}
			// The same row as the parent wrote it still decodes.
			legacy, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if got, err = decodeSpoolRow(r.Key, legacy); err != nil || !reflect.DeepEqual(got, r) {
				t.Errorf("legacy JSON %s:\n got %+v, %v\nwant %+v", legacy, got, err, r)
			}
		})
	}
}

// chainCases are rows of every shape the redeemer writes.
func chainCases() map[string]*ChainRow {
	row := func(edit func(r *ChainRow)) *ChainRow {
		r := &ChainRow{Commitment: payment.ChainCommitment{
			Serial: "o_t4hOZ582btUlTyWWY9vA", DrawerAccountID: "01-0001-00000003",
			DrawerCert: "CN=acct-0003,O=VO-Bench", PayeeCert: "CN=gsp-0001,O=VO-Bench",
			Root: fill(1), Length: 4096, PerWord: currency.MustParse("0.000001"), Currency: currency.GridDollar,
			IssuedAt: rowEpoch, Expires: rowEpoch.Add(24 * time.Hour),
		}, State: StateOutstanding}
		edit(r)
		return r
	}
	pin := func(r *ChainRow) {
		r.RedeemedIndex, r.RedeemedWord = 64, fill(2)
		r.PinTxID, r.PinIndex, r.PinWord, r.PinPayee = 17, 96, fill(3), "01-0001-00000008"
	}
	return map[string]*ChainRow{
		"fresh":                  row(func(*ChainRow) {}),
		"advanced":               row(func(r *ChainRow) { r.RedeemedIndex, r.RedeemedWord = 64, fill(2) }),
		"legacy anchor, no word": row(func(r *ChainRow) { r.RedeemedIndex = 64 }),
		"pinned":                 row(pin),
		"pinned with RUR":        row(func(r *ChainRow) { pin(r); r.PinRUR = []byte(`{"job":"j-9"}`) }),
		"redeemed": row(func(r *ChainRow) {
			r.State, r.RedeemedIndex, r.RedeemedWord = StateRedeemed, 4096, fill(4)
		}),
		"released": row(func(r *ChainRow) { r.State, r.RedeemedIndex, r.RedeemedWord = StateReleased, 5, fill(5) }),
	}
}

func TestChainRowCodec(t *testing.T) {
	for name, r := range chainCases() {
		t.Run(name, func(t *testing.T) {
			serial := r.Commitment.Serial
			raw, err := r.encode()
			if err != nil {
				t.Fatal(err)
			}
			if raw[0] != wire.RowBin1 {
				t.Fatalf("value opens with 0x%02x, not the bin1 version byte", raw[0])
			}
			if r.PinTxID == 0 && len(raw) > 230 {
				t.Errorf("unpinned chain value is %d B, want ≤ 230", len(raw))
			}
			got, err := decodeChainRow(serial, raw)
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
			if got, err = decodeChainRow(serial, legacy); err != nil || !reflect.DeepEqual(got, r) {
				t.Errorf("legacy JSON %s:\n got %+v, %v\nwant %+v", legacy, got, err, r)
			}
		})
	}
}

func TestChainHeadCodec(t *testing.T) {
	for name, r := range chainCases() {
		t.Run(name, func(t *testing.T) {
			serial := r.Commitment.Serial
			raw, err := r.encodeHead()
			if err != nil {
				t.Fatal(err)
			}
			if raw[0] != wire.RowBin1 {
				t.Fatalf("value opens with 0x%02x, not the bin1 version byte", raw[0])
			}
			if r.PinTxID == 0 && len(raw) > 40 {
				t.Errorf("unpinned head value is %d B, want ≤ 40", len(raw))
			}
			// The head overlays a commitment row whatever that row says.
			base, err := decodeChainRow(serial, mustEncode(t, chainCases()["pinned with RUR"]))
			if err != nil {
				t.Fatal(err)
			}
			base.Commitment = r.Commitment
			if err := base.readHead(serial, raw); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, r) {
				t.Errorf("head over a commitment:\n got %+v\nwant %+v", base, r)
			}
		})
	}
}

func mustEncode(t *testing.T, r *ChainRow) []byte {
	t.Helper()
	raw, err := r.encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestRowCodecsRefuse(t *testing.T) {
	spool := spoolCases()["legacy pending"]
	good, _ := encodeSpoolRow(spool)
	perChain := spoolCases()["pending"]
	goodChain, _ := encodeSpoolRow(perChain)
	goodHead, _ := chainCases()["advanced"].encodeHead()
	head := func(raw []byte) error { return (&ChainRow{}).readHead("S", raw) }
	for name, fn := range map[string]func() error{
		"chain row in an unknown state": func() error {
			r := *chainCases()["fresh"]
			r.State = "lost"
			_, err := r.encode()
			return err
		},
		// A UnixNano past 2262 would wrap to the 1700s: a chain that
		// reads as long expired, releasable while its payee's commitment
		// is still valid.
		"chain expiring in 2300": func() error {
			r := *chainCases()["fresh"]
			r.Commitment.Expires = time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
			_, err := r.encode()
			return err
		},
		"spool row enqueued at the zero time": func() error {
			r := *spool
			r.Enqueued = time.Time{}
			_, err := encodeSpoolRow(&r)
			return err
		},
		"per-chain row enqueued at the zero time": func() error {
			r := *perChain
			r.Enqueued = time.Time{}
			_, err := encodeSpoolRow(&r)
			return err
		},
		"unknown version": func() error { _, err := decodeSpoolRow(spool.Key, append([]byte{0xB2}, good[1:]...)); return err },
		"unknown flags": func() error {
			_, err := decodeSpoolRow(spool.Key, append([]byte{wire.RowBin1, 0x80}, good[2:]...))
			return err
		},
		"truncated":          func() error { _, err := decodeSpoolRow(spool.Key, good[:len(good)-1]); return err },
		"trailing bytes":     func() error { _, err := decodeSpoolRow(spool.Key, append(good, 0)); return err },
		"key without index":  func() error { _, err := decodeSpoolRow("S", good); return err },
		"key index unpadded": func() error { _, err := decodeSpoolRow("S/42", good); return err },
		"empty value":        func() error { _, err := decodeSpoolRow(spool.Key, nil); return err },
		"per-chain row at index 0": func() error {
			_, err := decodeSpoolRow("S", append([]byte{wire.RowBin1, spoolChain, 0}, goodChain[4:]...))
			return err
		},
		"per-chain row of no claims": func() error {
			_, err := decodeSpoolRow("S", append([]byte{wire.RowBin1, spoolChain, goodChain[2], goodChain[3], 0}, goodChain[5:]...))
			return err
		},
		"per-chain row with a padded varint": func() error {
			_, err := decodeSpoolRow("S", append([]byte{wire.RowBin1, spoolChain, 0x81, 0x00}, goodChain[4:]...))
			return err
		},
		"per-chain row truncated": func() error { _, err := decodeSpoolRow("S", goodChain[:len(goodChain)-1]); return err },
		"chain state out of range": func() error {
			raw, _ := chainCases()["fresh"].encode()
			raw[2] = byte(len(chainStates))
			_, err := decodeChainRow("S", raw)
			return err
		},
		"corrupt legacy JSON": func() error { _, err := decodeChainRow("S", []byte(`{"state":`)); return err },
		"head state out of range": func() error {
			return head(append([]byte{wire.RowBin1, 0, byte(len(chainStates))}, goodHead[3:]...))
		},
		"head pinned to transaction 0": func() error {
			raw, _ := chainCases()["pinned"].encodeHead() // "advanced", then the pin
			raw[len(goodHead)] = 0
			return head(raw)
		},
		"head as JSON":          func() error { return head([]byte(`{"state":"outstanding"}`)) },
		"head with trailing":    func() error { return head(append(goodHead, 0)) },
		"head of unknown flags": func() error { return head(append([]byte{wire.RowBin1, 0x02}, goodHead[2:]...)) },
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
		f.Add(r.Key, raw)
		f.Add(r.Key, legacy)
	}
	f.Fuzz(func(t *testing.T, key string, raw []byte) {
		fuzzRoundTrip(t, raw,
			func(b []byte) (*spoolRow, error) { return decodeSpoolRow(key, b) }, encodeSpoolRow)
	})
}

// FuzzChainHead: a head value that decodes re-encodes to the same bytes.
func FuzzChainHead(f *testing.F) {
	for _, r := range chainCases() {
		raw, _ := r.encodeHead()
		f.Add(r.Commitment.Serial, raw)
	}
	f.Fuzz(func(t *testing.T, serial string, raw []byte) {
		fuzzRoundTrip(t, raw,
			func(b []byte) (*ChainRow, error) {
				r := &ChainRow{}
				return r, r.readHead(serial, b)
			},
			func(r *ChainRow) ([]byte, error) { return r.encodeHead() })
	})
}

// FuzzChainRow is FuzzSpoolRow for chain rows.
func FuzzChainRow(f *testing.F) {
	for _, r := range chainCases() {
		raw, _ := r.encode()
		legacy, _ := json.Marshal(r)
		f.Add(r.Commitment.Serial, raw)
		f.Add(r.Commitment.Serial, legacy)
	}
	f.Fuzz(func(t *testing.T, serial string, raw []byte) {
		fuzzRoundTrip(t, raw,
			func(b []byte) (*ChainRow, error) { return decodeChainRow(serial, b) },
			func(r *ChainRow) ([]byte, error) { return r.encode() })
	})
}

func fuzzRoundTrip[R any](t *testing.T, raw []byte, decode func([]byte) (R, error), encode func(R) ([]byte, error)) {
	row, err := decode(raw)
	if err != nil {
		return
	}
	out, err := encode(row)
	if raw[0] == '{' {
		if err != nil {
			return // a legacy row no writer could have produced
		}
	} else if err != nil || !bytes.Equal(out, raw) {
		t.Fatalf("bin1 row %x re-encodes to %x, %v", raw, out, err)
	}
	again, err := decode(out)
	if err != nil {
		t.Fatalf("re-encoded row %x does not decode: %v", out, err)
	}
	if out2, err := encode(again); err != nil || !bytes.Equal(out2, out) {
		t.Fatalf("bin1 row %x re-encodes to %x, %v", out, out2, err)
	}
	if out[0] != wire.RowBin1 {
		t.Fatalf("re-encoded row is not bin1: %q", out)
	}
}

// TestAdmitMergesIntoTheChainRow: the intake transaction's merge keeps
// the higher claim, the sum of the claims and the oldest enqueue
// instant; a pending row that reaches as far refuses the incoming one;
// a parked one is revived whole; and a rerun transaction sees only its
// own attempt.
func TestAdmitMergesIntoTheChainRow(t *testing.T) {
	later := rowEpoch.Add(time.Minute)
	incoming := func() *spoolRow {
		return &spoolRow{Key: "S", Serial: "S", Index: 50, Word: fill(5), RUR: []byte("rur-50"),
			State: statePending, submitted: 2, submittedAt: later}
	}
	held := func(index int, parked bool) *spoolRow {
		r := &spoolRow{Key: "S", Serial: "S", Index: index, Word: fill(byte(index)), RUR: []byte("rur-held"),
			Claims: 3, State: statePending, Enqueued: rowEpoch}
		if parked {
			r.Park("no funds")
		}
		return r
	}
	type want struct {
		ok            bool
		index, claims int
		enqueued      time.Time
	}
	for _, tc := range []struct {
		name string
		cur  *spoolRow
		want want
	}{
		{"free key", nil, want{true, 50, 2, later}},
		{"pending lower row", held(30, false), want{true, 50, 5, rowEpoch}},
		{"pending row as far", held(50, false), want{ok: false}},
		{"parked lower row", held(30, true), want{true, 50, 5, rowEpoch}},
		{"parked higher row", held(70, true), want{true, 70, 5, rowEpoch}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := incoming()
			admit(in, held(10, false)) // an earlier run of the same transaction
			ok := admit(in, tc.cur)
			if ok != tc.want.ok || ok != in.admitted {
				t.Fatalf("admit = %v (admitted %v), want %v", ok, in.admitted, tc.want.ok)
			}
			if !ok {
				return
			}
			got := want{ok, in.Index, in.Claims, in.Enqueued}
			if got != tc.want {
				t.Errorf("merged row = %+v, want %+v", got, tc.want)
			}
			if in.Index == 70 && (!bytes.Equal(in.Word, fill(70)) || string(in.RUR) != "rur-held") {
				t.Errorf("revived row keeps word %x, evidence %q of the lower claim", in.Word, in.RUR)
			}
		})
	}
}
