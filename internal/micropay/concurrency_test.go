package micropay_test

// Intake locks per chain, not per pipeline: Submits on disjoint chains
// verify in parallel and share spool flushes, Submits on one chain
// serialize, and a batch takes its chains in serial order so no two
// Submits can wait on each other. Run under -race.

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridbank/internal/currency"
	"gridbank/internal/db"
	"gridbank/internal/diskfault"
	"gridbank/internal/micropay"
	"gridbank/internal/payment"
	"gridbank/internal/wire"
)

// slowSyncFS counts the Sync calls the storage layer makes and gives
// each a device-like duration, so committers that could share a flush
// do overlap with one.
type slowSyncFS struct {
	db.FS
	syncs *atomic.Int64
}

func (c slowSyncFS) OpenFile(name string, flag int, perm os.FileMode) (db.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f, c.syncs}, nil
}

type slowSyncFile struct {
	db.File
	syncs *atomic.Int64
}

func (f slowSyncFile) Sync() error {
	f.syncs.Add(1)
	time.Sleep(time.Millisecond)
	return f.File.Sync()
}

// pipeOver replaces the world's pipeline with one over the given spool.
func (w *world) pipeOver(spool *db.Store, workers int) *micropay.Pipeline {
	w.t.Helper()
	w.pipe.Close()
	pipe, err := micropay.New(micropay.Config{
		Redeemer:    w.red,
		FindAccount: w.led.FindByCertificate,
		Spool:       spool,
		Workers:     workers,
		Now:         w.nowFn,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { pipe.Close() })
	return pipe
}

// waitFor fails the test, instead of hanging it, when the goroutines of
// wg are still running after the limit — a deadlock between Submits.
func waitFor(t *testing.T, wg *sync.WaitGroup, limit time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("submitters still blocked after %s", limit)
	}
}

func TestDisjointChainsShareSpoolFlushes(t *testing.T) {
	const producers, rounds, perSubmit = 8, 20, 4
	w := newWorld(t, 1)
	var syncs atomic.Int64
	j, err := db.OpenFileJournalCodecFS(slowSyncFS{diskfault.New(diskfault.Config{}), &syncs}, "/micropay.wal", true, wire.CodecBin1)
	if err != nil {
		t.Fatal(err)
	}
	spool, err := db.Open(j)
	if err != nil {
		t.Fatal(err)
	}
	pipe := w.pipeOver(spool, -1)
	chains := make([]*payment.Chain, producers)
	for i := range chains {
		chains[i] = w.issue(w.sameCert, rounds*perSubmit, currency.MustParse("0.01"), time.Hour)
	}
	batches := make([][][]micropay.Claim, producers) // built here: claimsFor may t.Fatal
	for i, ch := range chains {
		for r := 0; r < rounds; r++ {
			first := r*perSubmit + 1
			batches[i] = append(batches[i], claimsFor(t, ch, first, first+1, first+2, first+3))
		}
	}

	syncs.Store(0)
	var wg sync.WaitGroup
	for i := range chains {
		wg.Add(1)
		go func(mine [][]micropay.Claim) {
			defer wg.Done()
			for _, batch := range mine {
				res, err := pipe.Submit(w.sameCert, batch)
				if err != nil || res.Accepted != perSubmit || res.Duplicates != 0 {
					t.Errorf("submit = %+v, %v", res, err)
					return
				}
			}
		}(batches[i])
	}
	waitFor(t, &wg, 30*time.Second)
	// One lock held across the spool commit made this one flush per Submit.
	if got := syncs.Load(); got >= producers*rounds {
		t.Errorf("%d spool flushes for %d Submits on disjoint chains: none was shared", got, producers*rounds)
	}
	st, err := pipe.Drain(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(producers * rounds * perSubmit); st.SettledTicks != want || st.SettledClaims != want || st.Failed != 0 {
		t.Errorf("drained = %+v, want %d ticks and claims", st, want)
	}
	w.assertConserved()
}

func TestOneChainManySubmitters(t *testing.T) {
	const submitters, length, run, stride = 6, 240, 8, 5
	w := newWorld(t, 1)
	spool, err := db.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe := w.pipeOver(spool, 2)
	per := currency.MustParse("0.01")
	ch := w.issue(w.sameCert, length, per, time.Hour)
	// Every submitter walks the chain in overlapping runs, so claims race
	// each other to the same anchor, and the last run exhausts the chain
	// while others still hold or reload its session.
	batches := make([][][]micropay.Claim, submitters)
	for g := range batches {
		for first := 1 + g; first <= length; first += stride {
			var indices []int
			for i := first; i < first+run && i <= length; i++ {
				indices = append(indices, i)
			}
			batches[g] = append(batches[g], claimsFor(t, ch, indices...))
		}
	}
	var wg sync.WaitGroup
	for g := range batches {
		wg.Add(1)
		go func(mine [][]micropay.Claim) {
			defer wg.Done()
			for _, batch := range mine {
				if _, err := pipe.Submit(w.sameCert, batch); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(batches[g])
	}
	waitFor(t, &wg, 30*time.Second)
	st, err := pipe.Drain(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	row, err := w.red.Get(ch.Commitment.Serial)
	if err != nil {
		t.Fatal(err)
	}
	if row.RedeemedIndex != length || st.SettledTicks != length || st.Failed != 0 || st.Pending != 0 {
		t.Errorf("chain redeemed to %d of %d, pipeline %+v", row.RedeemedIndex, length, st)
	}
	paid, err := per.MulInt(int64(row.RedeemedIndex))
	if err != nil {
		t.Fatal(err)
	}
	if got := w.avail(w.sameAcct); got != paid {
		t.Errorf("payee = %s, want %s: exactly-once violated", got, paid)
	}
	w.assertConserved()
}

func TestOppositeClaimOrderDoesNotDeadlock(t *testing.T) {
	const rounds = 300
	w := newWorld(t, 1)
	spool, err := db.Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	pipe := w.pipeOver(spool, 2)
	a := w.issue(w.sameCert, rounds, currency.MustParse("0.01"), time.Hour)
	b := w.issue(w.sameCert, rounds, currency.MustParse("0.01"), time.Hour)
	forward := make([][]micropay.Claim, rounds)
	backward := make([][]micropay.Claim, rounds)
	for i := range forward {
		ca, cb := claimsFor(t, a, i+1)[0], claimsFor(t, b, i+1)[0]
		forward[i], backward[i] = []micropay.Claim{ca, cb}, []micropay.Claim{cb, ca}
	}
	var wg sync.WaitGroup
	for _, mine := range [][][]micropay.Claim{forward, backward} {
		wg.Add(1)
		go func(mine [][]micropay.Claim) {
			defer wg.Done()
			for _, batch := range mine {
				if _, err := pipe.Submit(w.sameCert, batch); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}(mine)
	}
	waitFor(t, &wg, 30*time.Second)
	st, err := pipe.Drain(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.SettledTicks != 2*rounds || st.Failed != 0 {
		t.Errorf("drained = %+v, want %d ticks", st, 2*rounds)
	}
	w.assertConserved()
}
