package accounts

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/wire"
)

var rowDate = time.Date(2026, 10, 19, 21, 43, 44, 872111859, time.UTC)

// roundTrip asserts decode(key, encode(in)) == in and that the value is
// a bin1 row.
func roundTrip[T any](t *testing.T, key string, in *T, enc func(*T) ([]byte, error), dec func(string, []byte) (*T, error)) []byte {
	t.Helper()
	raw, err := enc(in)
	if err != nil {
		t.Fatalf("encode %s: %v", key, err)
	}
	if raw[0] != wire.RowBin1 {
		t.Fatalf("encode %s: % x is not a bin1 row", key, raw[:2])
	}
	out, err := dec(key, raw)
	if err != nil {
		t.Fatalf("decode %s: %v", key, err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip %s:\n got %+v\nwant %+v", key, out, in)
	}
	return raw
}

func TestAccountRowRoundTrips(t *testing.T) {
	for _, a := range []*Account{
		{AccountID: "01-0001-00000001", CertificateName: "CN=alice,O=VO-N", OrganizationName: "VO-N",
			AvailableBalance: currency.FromG(987), LockedBalance: currency.FromMicro(15), Currency: currency.GridDollar, CreatedAt: rowDate},
		{AccountID: "01-0001-00000002", CertificateName: "CN=bob,O=VO-N", AvailableBalance: -currency.FromG(40),
			Currency: "EUR", CreditLimit: currency.FromG(50), Closed: true, CreatedAt: rowDate},
		{AccountID: "99-9999-99999999", CertificateName: "CN=x", Currency: currency.GridDollar, CreatedAt: time.Unix(0, 0).UTC()},
	} {
		raw := roundTrip(t, string(a.AccountID), a, encodeAccount, decodeAccount)
		if bytes.Contains(raw, []byte(a.AccountID)) {
			t.Errorf("account row stores its key again: % x", raw)
		}
	}
}

func TestTransactionRowRoundTrips(t *testing.T) {
	for i, typ := range txTypes {
		tr := &Transaction{TransactionID: uint64(i + 1), AccountID: "01-0001-00000003", Type: typ,
			Date: rowDate.Add(time.Duration(i)), Amount: currency.FromMicro(int64(i*7 - 10))}
		raw := roundTrip(t, txKey(tr.TransactionID, tr.AccountID), tr, encodeTransaction, decodeTransaction)
		if len(raw) != 19 {
			t.Errorf("%s row is %d B, want 19", typ, len(raw))
		}
	}
	if _, err := encodeTransaction(&Transaction{Type: "Gift", Date: rowDate}); err == nil {
		t.Fatal("unknown transaction type encoded")
	}
}

func TestTransferRowRoundTrips(t *testing.T) {
	rur600 := bytes.Repeat([]byte{0, 1, 0xfe, '{'}, 150)
	for _, tr := range []*Transfer{
		{TransactionID: 8, Date: rowDate, DrawerAccountID: "01-0001-00000001", Amount: currency.FromG(10), RecipientAccountID: "01-0001-00000003"},
		{TransactionID: 9, Date: rowDate, DrawerAccountID: "01-0001-00000001", Amount: currency.FromG(20), RecipientAccountID: "01-0001-00000002",
			Cancelled: true, ReversalID: 12},
		{TransactionID: 10, Date: rowDate, DrawerAccountID: "01-0001-00000002", Amount: 1, RecipientAccountID: "01-0001-00000001", ReversalID: 1 << 40},
		{TransactionID: 1 << 50, Date: rowDate, DrawerAccountID: "01-0001-00000002", Amount: currency.FromG(7), RecipientAccountID: "01-0001-00000001",
			ResourceUsageRecord: rur600},
	} {
		raw := roundTrip(t, transferKey(tr.TransactionID), tr, encodeTransfer, decodeTransfer)
		if want := 54 + len(tr.ResourceUsageRecord) + 4*min(len(tr.ResourceUsageRecord), 1); tr.ReversalID == 0 && len(raw) != want {
			t.Errorf("transfer %d row is %d B, want %d", tr.TransactionID, len(raw), want)
		}
	}
}

func TestDedupRowRoundTrips(t *testing.T) {
	mk := &DedupMarker{Key: "client-7/op-42", TxID: 9, Date: rowDate}
	if raw := roundTrip(t, mk.Key, mk, encodeDedup, decodeDedup); len(raw) != 18 {
		t.Errorf("dedup row is %d B, want 18", len(raw))
	}
}

// TestParentJSONRowsDecode: rows the parent commit wrote (copied from
// node/testdata/ledger_db22fd7's JSON journal) decode to the same
// records they always did.
func TestParentJSONRowsDecode(t *testing.T) {
	date := rowDate
	for _, c := range []struct {
		key  string
		raw  string
		dec  func(string, []byte) (any, error)
		want any
	}{
		{"01-0001-00000004",
			`{"account_id":"01-0001-00000004","certificate_name":"CN=dave,O=VO-N","organization_name":"VO-N","available_balance":"0","locked_balance":"0","currency":"G$","credit_limit":"0","closed":true,"created_at":"2026-10-19T21:43:44.872111859Z"}`,
			anyDec(decodeAccount),
			&Account{AccountID: "01-0001-00000004", CertificateName: "CN=dave,O=VO-N", OrganizationName: "VO-N", Currency: "G$", Closed: true, CreatedAt: date}},
		{"01-0001-00000002",
			`{"account_id":"01-0001-00000002","certificate_name":"CN=bob,O=VO-N","organization_name":"VO-N","available_balance":"495","locked_balance":"0","currency":"G$","credit_limit":"50","created_at":"2026-10-19T21:43:44.872111859Z"}`,
			anyDec(decodeAccount),
			&Account{AccountID: "01-0001-00000002", CertificateName: "CN=bob,O=VO-N", OrganizationName: "VO-N", AvailableBalance: currency.FromG(495),
				Currency: "G$", CreditLimit: currency.FromG(50), CreatedAt: date}},
		{"00000000000000000007/01-0001-00000002",
			`{"transaction_id":7,"account_id":"01-0001-00000002","type":"Withdrawal","date":"2026-10-19T21:43:44.872111859Z","amount":"-5"}`,
			anyDec(decodeTransaction),
			&Transaction{TransactionID: 7, AccountID: "01-0001-00000002", Type: TxWithdrawal, Date: date, Amount: -currency.FromG(5)}},
		{"00000000000000000005/01-0001-00000001",
			`{"transaction_id":5,"account_id":"01-0001-00000001","type":"Lock","date":"2026-10-19T21:43:44.872111859Z","amount":"30"}`,
			anyDec(decodeTransaction),
			&Transaction{TransactionID: 5, AccountID: "01-0001-00000001", Type: TxLock, Date: date, Amount: currency.FromG(30)}},
		{"00000000000000000010",
			`{"transaction_id":10,"date":"2026-10-19T21:43:44.872111859Z","drawer_account_id":"01-0001-00000002","amount":"7","recipient_account_id":"01-0001-00000001","resource_usage_record":"cnVyLWV2aWRlbmNlLQABAg=="}`,
			anyDec(decodeTransfer),
			&Transfer{TransactionID: 10, Date: date, DrawerAccountID: "01-0001-00000002", Amount: currency.FromG(7), RecipientAccountID: "01-0001-00000001",
				ResourceUsageRecord: []byte("rur-evidence-\x00\x01\x02")}},
		{"00000000000000000009",
			`{"transaction_id":9,"date":"2026-10-19T21:43:44.872111859Z","drawer_account_id":"01-0001-00000001","amount":"20","recipient_account_id":"01-0001-00000002","cancelled":true,"reversal_id":12}`,
			anyDec(decodeTransfer),
			&Transfer{TransactionID: 9, Date: date, DrawerAccountID: "01-0001-00000001", Amount: currency.FromG(20), RecipientAccountID: "01-0001-00000002",
				Cancelled: true, ReversalID: 12}},
		{"k-cross",
			`{"key":"k-cross","txid":9,"date":"2026-10-19T21:43:44.872111859Z"}`,
			anyDec(decodeDedup),
			&DedupMarker{Key: "k-cross", TxID: 9, Date: date}},
	} {
		got, err := c.dec(c.key, []byte(c.raw))
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s:\n got %+v\nwant %+v", c.key, got, c.want)
		}
	}
}

func anyDec[T any](dec func(string, []byte) (*T, error)) func(string, []byte) (any, error) {
	return func(key string, raw []byte) (any, error) { return dec(key, raw) }
}

// TestRowEncodersRefuse: what a layout cannot hold — an instant with no
// UnixNano, a string over 64 KiB — fails the write with an error; it
// is never wrapped into another value and never panics.
func TestRowEncodersRefuse(t *testing.T) {
	far := time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	long := strings.Repeat("x", 1<<16)
	for name, enc := range map[string]func() ([]byte, error){
		"account created 2300": func() ([]byte, error) { return encodeAccount(&Account{CreatedAt: far}) },
		"account created 1600": func() ([]byte, error) {
			return encodeAccount(&Account{CreatedAt: time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)})
		},
		"account long name":      func() ([]byte, error) { return encodeAccount(&Account{CertificateName: long, CreatedAt: rowDate}) },
		"account long org":       func() ([]byte, error) { return encodeAccount(&Account{OrganizationName: long, CreatedAt: rowDate}) },
		"transaction dated 2300": func() ([]byte, error) { return encodeTransaction(&Transaction{Type: TxDeposit, Date: far}) },
		"transfer dated 2300":    func() ([]byte, error) { return encodeTransfer(&Transfer{Date: far}) },
		"transfer long drawer":   func() ([]byte, error) { return encodeTransfer(&Transfer{Date: rowDate, DrawerAccountID: ID(long)}) },
		"dedup dated 2300":       func() ([]byte, error) { return encodeDedup(&DedupMarker{Date: far}) },
	} {
		if raw, err := enc(); err == nil {
			t.Errorf("%s encoded: % x", name, raw[:min(len(raw), 16)])
		}
	}

	// Through the manager: the refused write fails its operation and
	// leaves the ledger as it was.
	now := rowDate
	m, err := NewManager(db.MustOpenMemory(), Config{Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	a := mustCreate(t, m, "CN=alice")
	now = far
	if _, err := m.CreateAccount("CN=bob", "", ""); err == nil {
		t.Fatal("account created in 2300")
	}
	if err := m.Admin().Deposit(a.AccountID, currency.FromG(1)); err == nil {
		t.Fatal("deposit dated 2300 committed")
	}
	if got, err := m.Details(a.AccountID); err != nil || !got.AvailableBalance.IsZero() {
		t.Fatalf("after refused deposit: %+v, %v", got, err)
	}
	if accts, err := m.Accounts(); err != nil || len(accts) != 1 {
		t.Fatalf("accounts after refused create: %v, %v", accts, err)
	}
}

// putRaw writes a row value as is (a legacy JSON row, or damage).
func putRaw(t *testing.T, m *Manager, table, key string, raw []byte) {
	t.Helper()
	if err := m.store.Update(func(tx *db.Tx) error { return tx.Put(table, key, raw) }); err != nil {
		t.Fatal(err)
	}
}

// TestMaxReversalIDMixedFormats: a TRANSFER table holding legacy JSON and
// bin1 rows, each format with a pinned reversal, gives the same maximum
// whichever format holds it; a bin1 row whose flags pin nothing is not
// decoded at all.
func TestMaxReversalIDMixedFormats(t *testing.T) {
	m := newTestManager(t)
	legacy := func(id, reversal uint64) {
		raw, err := json.Marshal(&Transfer{TransactionID: id, Date: rowDate, DrawerAccountID: "a", RecipientAccountID: "b", Amount: 1, ReversalID: reversal})
		if err != nil {
			t.Fatal(err)
		}
		putRaw(t, m, tableTransfers, transferKey(id), raw)
	}
	bin := func(id, reversal uint64) {
		if err := m.store.Update(func(tx *db.Tx) error {
			return m.PutTransferTx(tx, &Transfer{TransactionID: id, Date: rowDate, DrawerAccountID: "a", RecipientAccountID: "b", Amount: 1, ReversalID: reversal})
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := func(n uint64) {
		t.Helper()
		if got, err := m.MaxReversalID(); err != nil || got != n {
			t.Fatalf("MaxReversalID = %d, %v; want %d", got, err, n)
		}
	}
	legacy(1, 0)
	bin(2, 0)
	legacy(3, 40)
	bin(4, 25)
	want(40)
	bin(5, 70)
	want(70)
	legacy(6, 90)
	want(90)
	// Garbage behind an unflagged bin1 header is skipped, not decoded;
	// behind the reversal flag it is reported.
	putRaw(t, m, tableTransfers, transferKey(7), []byte{wire.RowBin1, transferCancelled, 0xde, 0xad})
	want(90)
	putRaw(t, m, tableTransfers, transferKey(8), []byte{wire.RowBin1, transferReversal, 0xde, 0xad})
	if _, err := m.MaxReversalID(); err == nil {
		t.Fatal("corrupt flagged row went unreported")
	}
}

// TestStatementOverMixedRows: a statement reads the same whether its
// rows are bin1 or the parent's JSON, and it never decodes another
// account's TRANSACTION rows — damage there does not reach it.
func TestStatementOverMixedRows(t *testing.T) {
	m := newTestManager(t)
	a, b, c := mustCreate(t, m, "CN=a"), mustCreate(t, m, "CN=b"), mustCreate(t, m, "CN=c")
	ad := m.Admin()
	for _, id := range []ID{a.AccountID, b.AccountID} {
		if err := ad.Deposit(id, currency.FromG(100)); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := m.Transfer(a.AccountID, b.AccountID, currency.FromG(7), TransferOptions{RUR: []byte("rur")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Transfer(b.AccountID, a.AccountID, currency.FromG(2), TransferOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := ad.CancelTransfer(tr.TransactionID); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckFunds(a.AccountID, currency.FromG(5)); err != nil {
		t.Fatal(err)
	}
	statement := func(id ID) []byte {
		t.Helper()
		st, err := m.Statement(id, time.Time{}, testEpoch.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	want := statement(a.AccountID)

	// Every other row back to the parent's JSON.
	i := 0
	for _, table := range []string{tableAccounts, tableTransactions, tableTransfers} {
		rows := map[string][]byte{}
		if err := m.store.Scan(table, func(key string, value []byte) bool { rows[key] = value; return true }); err != nil {
			t.Fatal(err)
		}
		for key, value := range rows {
			if i++; i%2 == 0 {
				continue
			}
			var row any
			switch table {
			case tableAccounts:
				row, err = decodeAccount(key, value)
			case tableTransactions:
				row, err = decodeTransaction(key, value)
			default:
				row, err = decodeTransfer(key, value)
			}
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			putRaw(t, m, table, key, raw)
		}
	}
	if got := statement(a.AccountID); !bytes.Equal(got, want) {
		t.Fatalf("statement over mixed rows:\n got %s\nwant %s", got, want)
	}
	// Another account's damaged rows stay out of a's statement.
	putRaw(t, m, tableTransactions, txKey(999, c.AccountID), []byte{wire.RowBin1, 0, 0xff})
	if got := statement(a.AccountID); !bytes.Equal(got, want) {
		t.Fatalf("statement with another account's damage:\n got %s\nwant %s", got, want)
	}
	if _, err := m.Statement(c.AccountID, time.Time{}, testEpoch.Add(time.Hour)); err == nil {
		t.Fatal("the damaged account's own statement hid its damage")
	}
}

// fuzzRow checks one row codec against arbitrary (key, value) pairs:
// decoding never panics, nor does re-encoding a legacy JSON row that
// decoded; a bin1 value that decodes re-encodes to the same bytes, so
// encode∘decode is the identity on every valid bin1 row.
func fuzzRow[T any](f *testing.F, seeds map[string][]byte, enc func(*T) ([]byte, error), dec func(string, []byte) (*T, error)) {
	for key, raw := range seeds {
		f.Add(key, raw)
	}
	f.Fuzz(func(t *testing.T, key string, raw []byte) {
		row, err := dec(key, raw)
		if err != nil {
			return
		}
		again, err := enc(row)
		if raw[0] != wire.RowBin1 {
			return // legacy JSON: bin1 may refuse what it holds (an instant past 2262)
		}
		if err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("re-encoding a decoded bin1 row = % x, %v; want % x", again, err, raw)
		}
	})
}

func encodeSeeds[T any](t testing.TB, enc func(*T) ([]byte, error), keyed map[string]*T, legacy map[string]string) map[string][]byte {
	out := map[string][]byte{}
	for key, row := range keyed {
		raw, err := enc(row)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = raw
	}
	for key, raw := range legacy {
		out[key] = []byte(raw)
	}
	return out
}

func FuzzAccountRow(f *testing.F) {
	fuzzRow(f, encodeSeeds(f, encodeAccount, map[string]*Account{
		"01-0001-00000002": {CertificateName: "CN=bob", AvailableBalance: -5, CreditLimit: 50, Currency: "G$", Closed: true, CreatedAt: rowDate},
	}, map[string]string{
		"01-0001-00000004": `{"account_id":"01-0001-00000004","certificate_name":"CN=dave","available_balance":"1.5","created_at":"2026-10-19T21:43:44Z"}`,
	}), encodeAccount, decodeAccount)
}

func FuzzTransactionRow(f *testing.F) {
	fuzzRow(f, encodeSeeds(f, encodeTransaction, map[string]*Transaction{
		txKey(7, "01-0001-00000002"): {Type: TxUnlock, Date: rowDate, Amount: -5},
	}, map[string]string{
		txKey(5, "01-0001-00000001"): `{"transaction_id":5,"account_id":"01-0001-00000001","type":"Lock","date":"2026-10-19T21:43:44Z","amount":"30"}`,
	}), encodeTransaction, decodeTransaction)
}

func FuzzTransferRow(f *testing.F) {
	fuzzRow(f, encodeSeeds(f, encodeTransfer, map[string]*Transfer{
		transferKey(9): {Date: rowDate, DrawerAccountID: "a", RecipientAccountID: "b", Amount: 20, Cancelled: true, ReversalID: 12, ResourceUsageRecord: []byte{0, 1}},
	}, map[string]string{
		transferKey(10): `{"transaction_id":10,"date":"2026-10-19T21:43:44Z","amount":"7","resource_usage_record":"AAEC"}`,
	}), encodeTransfer, decodeTransfer)
}

func FuzzDedupRow(f *testing.F) {
	fuzzRow(f, encodeSeeds(f, encodeDedup, map[string]*DedupMarker{
		"k": {TxID: 9, Date: rowDate},
	}, map[string]string{
		"k-cross": `{"key":"k-cross","txid":9,"date":"2026-10-19T21:43:44Z"}`,
	}), encodeDedup, decodeDedup)
}
