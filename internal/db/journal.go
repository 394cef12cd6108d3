package db

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gridbank/internal/obs"
	"gridbank/internal/wire"
)

// Op is a journal operation kind.
type Op string

// Journal operations.
const (
	OpCreateTable Op = "mktable"
	OpPut         Op = "put"
	OpDelete      Op = "del"
)

// Entry is one write-ahead journal record.
type Entry struct {
	Seq   uint64 `json:"seq"`
	Op    Op     `json:"op"`
	Table string `json:"table"`
	Key   string `json:"key,omitempty"`
	Value []byte `json:"value,omitempty"`
}

// ErrStorageFailed is the typed fail-stop error: a journal flush or
// fsync failed, so the durable medium can no longer be trusted to hold
// what the store acked (the kernel may already have dropped the dirty
// pages — retrying the fsync can falsely succeed, the classic
// fsyncgate failure). Every error produced by a poisoned journal or
// store matches errors.Is(err, ErrStorageFailed); core maps it to the
// wire code "unavailable" so callers see refusal, not silent loss. The
// only recovery is a process restart that replays the journal — the
// acked prefix — from disk.
var ErrStorageFailed = errors.New("db: storage failed")

// Journal is the durability interface of the store. AppendBatch must be
// atomic: on replay either every entry of the batch is seen or none
// (torn batches at the journal tail are discarded, matching the
// crash-before-commit semantics of the transaction layer).
type Journal interface {
	Append(Entry) error
	AppendBatch([]Entry) error
	Replay(apply func(Entry) error) error
	Close() error
}

// CompactableJournal is an optional Journal extension: Compact discards
// the journal's contents. Only safe when every entry is durably covered
// elsewhere — i.e. immediately after a successful Store.Checkpoint,
// before new writes land (gridbankd does this at startup, while
// quiescent). A crash between checkpoint and Compact is harmless:
// recovery skips the journal's pre-checkpoint entries by sequence.
type CompactableJournal interface {
	Journal
	Compact() error
}

// GroupJournal is an optional Journal extension for group commit. Stage
// enqueues a batch without doing I/O and returns a wait function; wait
// blocks until the batch is durable (or the journal fails) and returns
// the outcome. Staging fixes the batch's position in the journal, so a
// caller may apply the batch's effects to memory between Stage and wait
// — later committers that observe those effects necessarily stage after
// it and therefore land after it on disk.
type GroupJournal interface {
	Journal
	Stage(entries []Entry) (wait func() error, err error)
}

// encBuf pairs a reusable buffer with a JSON encoder bound to it, so
// batch encoding allocates nothing beyond the final line copy.
type encBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encBufPool = sync.Pool{New: func() any {
	e := &encBuf{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

// ticket tracks one staged batch through a group flush.
type ticket struct {
	e    *encBuf
	done bool
	err  error
}

// Binary journal generation format. A journal file's codec is fixed
// per generation and announced by a marker at the start of the file:
// files opening with binJournalMagic are bin1 generations, anything
// else (including the seed's marker-less files) is JSON. The marker's
// first byte is non-ASCII and can never open a JSON array, so Replay
// auto-detects the generation and an existing file's format always
// wins over the codec the journal was opened with.
//
// A bin1 generation is the 8-byte marker followed by records:
//
//	magic:u8 len:u32 crc:u32 payload
//
// where crc is CRC-32 (IEEE) of the payload, and the magic names the
// payload's encoding (see bincodec.go): 0xBF the compact entry batch
// every record is written in now, 0xBE the fixed-width one older
// binaries wrote. Replay, the tear checks and fsck dispatch on each
// record's magic, so a generation that mixes both replays without a
// Compact. The CRC gives the binary generation the same
// tear-vs-corruption discrimination newlines give the JSON one.
const (
	binJournalMagic    = "\xb3GBWAL1\n"
	binRecordMagic     = 0xBE
	compactRecordMagic = 0xBF
	binRecordHdrLen    = 9        // magic u8 + len u32 + crc u32
	maxJournalRecord   = 64 << 20 // matches the JSON scanner's max line
)

// recordLen returns the payload length a bin1 record header announces;
// ok is false for a header no writer produces, which only a tear (or
// corruption) leaves behind.
func recordLen(hdr []byte) (n uint32, ok bool) {
	n = binary.BigEndian.Uint32(hdr[1:5])
	return n, (hdr[0] == binRecordMagic || hdr[0] == compactRecordMagic) && n > 0 && n <= maxJournalRecord
}

// recordIntact reports whether payload matches its header's CRC.
func recordIntact(hdr, payload []byte) bool {
	return crc32.ChecksumIEEE(payload) == binary.BigEndian.Uint32(hdr[5:9])
}

// decodeRecord checks a record's CRC and decodes its payload by its
// header's magic; sizes, when non-nil, gets each entry's encoded size.
func decodeRecord(hdr, payload []byte, sizes *[]int) ([]Entry, error) {
	if !recordIntact(hdr, payload) {
		return nil, errors.New("db: journal record fails its CRC")
	}
	if hdr[0] == compactRecordMagic {
		return decodeEntriesCompact(payload, sizes)
	}
	return decodeEntriesBinary(payload, sizes)
}

// fileJournal is a write-ahead journal file in one of two generations:
// newline-delimited JSON (the seed format — each line a batch: a JSON
// array of entries) or the bin1 record format above. In both, a batch
// that fails to parse (torn write at crash) terminates replay cleanly.
//
// Concurrent appends group-commit: each committer encodes its batch
// outside the lock and stages it; the first waiter becomes the leader
// and writes+fsyncs every staged batch in one pass, while followers
// block on their ticket. A follower's wait is bounded by one in-flight
// flush cycle — the next leader picks its batch up as soon as the
// current flush finishes. N concurrent committers therefore share one
// fsync instead of queueing N.
type fileJournal struct {
	mu      sync.Mutex
	flushed sync.Cond // signaled after each flush completes and on close
	fsys    FS
	path    string
	f       File
	w       *bufio.Writer
	sync    bool
	staged  []*ticket
	leading bool        // a leader is currently writing outside mu
	err     error       // sticky flush failure: once durability order is broken, fail stop
	bin     atomic.Bool // current generation is bin1 (atomic: Stage encodes outside mu)
	binNext bool        // codec requested at open; adopted when a fresh generation starts (Compact)

	// Group-commit telemetry (nil no-ops until setObs).
	mFsync    *obs.Histogram // fsync latency per group flush
	mBatch    *obs.Histogram // staged batches coalesced per flush
	mBytes    *obs.Counter   // journal bytes written
	mFsyncErr *obs.Counter   // flush/fsync failures (each one poisons the journal)
}

// setObs resolves the journal's instruments. Wiring-time only, via
// Store.SetObs.
func (j *fileJournal) setObs(reg *obs.Registry) {
	j.mFsync = reg.Histogram("db.fsync")
	j.mBatch = reg.Histogram("db.commit_batch")
	j.mBytes = reg.Counter("db.journal_bytes")
	j.mFsyncErr = reg.Counter("db.fsync_errors")
}

// OpenFileJournal opens (creating if needed) a journal file in the
// seed JSON codec. If syncEach is true every flush is fsynced — durable
// against power loss, slower; GridBank servers want true, simulations
// want false.
func OpenFileJournal(path string, syncEach bool) (Journal, error) {
	return OpenFileJournalCodec(path, syncEach, wire.CodecJSON)
}

// OpenFileJournalCodec opens (creating if needed) a journal file,
// starting new generations in the given codec ("json" or "bin1"). An
// existing non-empty file keeps its own generation's codec regardless
// of the request — a JSON data dir opens unchanged under a
// binary-default build, and vice versa. The codec takes effect for a
// file only when it is empty: at creation, or after Compact.
func OpenFileJournalCodec(path string, syncEach bool, codec string) (Journal, error) {
	return OpenFileJournalCodecFS(OSFS(), path, syncEach, codec)
}

// OpenFileJournalCodecFS is OpenFileJournalCodec over an explicit
// filesystem — the seam the diskfault package injects faults through.
func OpenFileJournalCodecFS(fsys FS, path string, syncEach bool, codec string) (Journal, error) {
	var wantBin bool
	switch codec {
	case wire.CodecJSON:
	case wire.CodecBin1:
		wantBin = true
	default:
		return nil, fmt.Errorf("db: unknown journal codec %q", codec)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("db: open journal: %w", err)
	}
	j := &fileJournal{fsys: fsys, path: path, f: f, w: bufio.NewWriter(f), sync: syncEach}
	j.flushed.L = &j.mu
	j.binNext = wantBin
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("db: stat journal: %w", err)
	}
	if st.Size() > 0 {
		// Existing generation wins: sniff the marker's first byte.
		// Replay validates the full marker (and repairs a torn one).
		var first [1]byte
		if _, err := f.ReadAt(first[:], 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("db: sniff journal codec: %w", err)
		}
		j.bin.Store(first[0] == binJournalMagic[0])
	} else if wantBin {
		if err := j.writeGenerationMarker(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// writeGenerationMarker starts a bin1 generation on an (empty) file.
// The file is O_APPEND, so a plain Write lands at the new end.
func (j *fileJournal) writeGenerationMarker() error {
	if _, err := j.f.Write([]byte(binJournalMagic)); err != nil {
		return fmt.Errorf("db: write journal codec marker: %w", err)
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("db: sync journal codec marker: %w", err)
		}
	}
	j.bin.Store(true)
	return nil
}

func (j *fileJournal) Append(e Entry) error { return j.AppendBatch([]Entry{e}) }

func (j *fileJournal) AppendBatch(entries []Entry) error {
	wait, err := j.Stage(entries)
	if err != nil {
		return err
	}
	return wait()
}

var waitNoop = func() error { return nil }

// Stage implements GroupJournal: encode outside the lock, enqueue, and
// hand back a wait that drives (or joins) the group flush.
func (j *fileJournal) Stage(entries []Entry) (func() error, error) {
	if len(entries) == 0 {
		return waitNoop, nil
	}
	e := encBufPool.Get().(*encBuf)
	e.buf.Reset()
	var encErr error
	if j.bin.Load() {
		encErr = appendBinRecord(&e.buf, entries)
	} else {
		encErr = e.enc.Encode(entries)
	}
	if encErr != nil {
		encBufPool.Put(e)
		return nil, encErr
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		encBufPool.Put(e)
		return nil, ErrClosed
	}
	if j.err != nil {
		encBufPool.Put(e)
		return nil, j.err
	}
	t := &ticket{e: e}
	j.staged = append(j.staged, t)
	return func() error { return j.wait(t) }, nil
}

// wait blocks until t's batch is durable. The first waiter whose batch
// is still pending becomes the leader and flushes the whole group.
func (j *fileJournal) wait(t *ticket) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for !t.done {
		if j.leading {
			j.flushed.Wait()
			continue
		}
		j.flushGroupLocked()
	}
	return t.err
}

// flushGroupLocked takes the staged batches and writes+fsyncs them as
// one group. Called with j.mu held; releases it during I/O.
func (j *fileJournal) flushGroupLocked() {
	group := j.staged
	j.staged = nil
	j.leading = true
	f, w, syncEach := j.f, j.w, j.sync
	j.mu.Unlock()

	var err error
	if f == nil {
		err = ErrClosed
	}
	var bytesOut int64
	for _, t := range group {
		if err == nil {
			_, err = w.Write(t.e.buf.Bytes())
			bytesOut += int64(t.e.buf.Len())
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil && syncEach {
		syncStart := time.Now()
		err = f.Sync()
		j.mFsync.ObserveDuration(time.Since(syncStart))
	}
	j.mBatch.Observe(int64(len(group)))
	if err == nil {
		j.mBytes.Add(bytesOut)
	} else if err != ErrClosed {
		// Fail-stop: a failed write/flush/fsync means the kernel may
		// already have dropped the batch's dirty pages, so a retried
		// Sync could report success for data that never reached disk
		// (fsyncgate). Every ticket in the group — and every later
		// caller, via the sticky error — gets the typed refusal; the fd
		// is never re-Synced to "recover".
		j.mFsyncErr.Inc()
		err = fmt.Errorf("db: journal flush failed: %w: %w", ErrStorageFailed, err)
	}

	j.mu.Lock()
	for _, t := range group {
		t.done = true
		t.err = err
		encBufPool.Put(t.e)
		t.e = nil
	}
	if err != nil && j.err == nil {
		j.err = err
	}
	j.leading = false
	j.flushed.Broadcast()
}

// appendBinRecord encodes one staged batch as a compact bin1 journal
// record into buf (which Stage has Reset, so the record starts at
// offset 0): header placeholder first, payload appended in place, then
// the length and CRC patched in.
func appendBinRecord(buf *bytes.Buffer, entries []Entry) error {
	buf.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0}) // binRecordHdrLen placeholder
	if err := appendEntriesCompact(buf, entries); err != nil {
		return err
	}
	b := buf.Bytes()
	payload := b[binRecordHdrLen:]
	if len(payload) > maxJournalRecord {
		return fmt.Errorf("db: %d-byte journal record exceeds maximum", len(payload))
	}
	b[0] = compactRecordMagic
	binary.BigEndian.PutUint32(b[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[5:9], crc32.ChecksumIEEE(payload))
	return nil
}

func (j *fileJournal) Replay(apply func(Entry) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.leading {
		j.flushed.Wait()
	}
	if j.f == nil {
		return ErrClosed
	}
	if j.err != nil {
		// A poisoned journal's file position and contents are unknown
		// territory; only a fresh open (new process) may replay it.
		return j.err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	// Sniff the generation marker: the file's format wins over the
	// codec the journal was opened with, so mixed data dirs replay
	// correctly under any build default.
	var first [1]byte
	if n, err := j.f.ReadAt(first[:], 0); err != nil && err != io.EOF {
		return err
	} else if n == 1 {
		j.bin.Store(first[0] == binJournalMagic[0])
	}
	if j.bin.Load() {
		return j.replayBinary(apply)
	}
	sc := bufio.NewScanner(j.f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	sc.Split(scanTerminatedLines)
	var good int64 // bytes consumed through the last intact batch line
	torn := false
	for sc.Scan() {
		line := sc.Bytes()
		if line[len(line)-1] != '\n' {
			// A batch is written with its newline and acknowledged only
			// after both are synced, so a final line without one is the
			// torn tail even when what survived of it parses: applying it
			// would leave the next append glued to the same line.
			torn = true
			break
		}
		var batch []Entry
		if len(line) > 1 { // not a blank line
			if err := json.Unmarshal(line, &batch); err != nil {
				// Torn tail from a crash mid-append: everything before this
				// line is a consistent prefix; stop here.
				torn = true
				break
			}
		}
		for _, e := range batch {
			if err := apply(e); err != nil {
				return err
			}
		}
		good += int64(len(line))
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if torn {
		if sc.Scan() {
			// Valid-looking lines follow the bad one: this is mid-file
			// corruption, not a crash tear (a tear is by construction
			// the last line). Truncating would destroy intact, possibly
			// fsynced-and-acked batches — refuse to open instead of
			// silently dropping them.
			return fmt.Errorf("db: journal corrupted mid-file at byte %d (intact data follows); manual repair required", good)
		}
		// Truncate the torn tail away: appends land after whatever the
		// file ends in, so leaving the junk line in place would bury
		// every future (fsynced, acked) batch behind it — the next
		// replay would stop at the tear and silently drop them.
		if err := j.f.Truncate(good); err != nil {
			return fmt.Errorf("db: truncating torn journal tail: %w", err)
		}
	}
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		return err
	}
	return nil
}

// scanTerminatedLines is bufio.ScanLines that keeps each line's newline,
// so the caller can tell a final line that never got one.
func scanTerminatedLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// replayBinary replays a bin1 generation. Tear-vs-corruption semantics
// mirror the JSON path: a record the crash tore off the tail (short
// header, short payload, implausible length) is truncated away, while a
// CRC or decode failure on a fully-present record is only a tear if
// nothing valid follows — when it is followed by an intact record the
// file is corrupted mid-stream and replay refuses, exactly like a bad
// JSON line with good lines after it. (A mangled record header makes
// the following length untrustworthy, so look-ahead is only possible
// when the bad record's own length was readable.)
func (j *fileJournal) replayBinary(apply func(Entry) error) error {
	br := bufio.NewReaderSize(j.f, 1<<20)
	marker := make([]byte, len(binJournalMagic))
	if _, err := io.ReadFull(br, marker); err != nil || string(marker) != binJournalMagic {
		// Torn generation marker: the file died at creation, before any
		// record could have been acked. Restart the generation.
		return j.resetBinaryGeneration()
	}
	good := int64(len(binJournalMagic)) // bytes consumed through the last intact record
	var payload []byte
	for {
		var hdr [binRecordHdrLen]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				break // clean end of journal
			}
			return j.truncateTornTail(good) // header torn mid-write
		}
		n, ok := recordLen(hdr[:])
		if !ok {
			return j.truncateTornTail(good)
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return j.truncateTornTail(good) // payload torn mid-write
		}
		entries, err := decodeRecord(hdr[:], payload, nil)
		if err != nil {
			if nextBinRecordIntact(br) {
				return fmt.Errorf("db: journal corrupted mid-file at byte %d (intact data follows); manual repair required", good)
			}
			return j.truncateTornTail(good)
		}
		for _, e := range entries {
			if err := apply(e); err != nil {
				return err
			}
		}
		good += binRecordHdrLen + int64(n)
	}
	_, err := j.f.Seek(0, io.SeekEnd)
	return err
}

// nextBinRecordIntact reports whether one complete, CRC-clean record
// can be read next — the binary generation's "intact data follows"
// probe. It may consume from br freely: both outcomes abort the replay
// scan.
func nextBinRecordIntact(br *bufio.Reader) bool {
	var hdr [binRecordHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return false
	}
	n, ok := recordLen(hdr[:])
	if !ok {
		return false
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return false
	}
	return recordIntact(hdr[:], payload)
}

// truncateTornTail discards a torn journal tail: appends land after
// whatever the file ends in, so leaving the junk in place would bury
// every future (fsynced, acked) batch behind it — the next replay
// would stop at the tear and silently drop them.
func (j *fileJournal) truncateTornTail(good int64) error {
	if err := j.f.Truncate(good); err != nil {
		return fmt.Errorf("db: truncating torn journal tail: %w", err)
	}
	_, err := j.f.Seek(0, io.SeekEnd)
	return err
}

// resetBinaryGeneration rewrites a bin1 file whose generation marker
// itself was torn (a crash inside OpenFileJournalCodec's first write).
func (j *fileJournal) resetBinaryGeneration() error {
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("db: resetting torn journal marker: %w", err)
	}
	if err := j.writeGenerationMarker(); err != nil {
		return err
	}
	_, err := j.f.Seek(0, io.SeekEnd)
	return err
}

// Compact implements CompactableJournal by truncating the file. The
// fresh generation adopts the codec the journal was opened with
// (writing its marker if bin1) — this is how a data dir migrates
// between codecs: checkpoint, then compact under the new default.
//
// Durability: in sync mode the truncation (and the fresh generation
// marker) is fsynced before Compact returns. The truncate is inode
// metadata — without the fsync a power loss immediately after could
// resurrect pre-checkpoint journal content at the old length, and a
// resurrected partial tail behind a fresh generation marker would read
// as mid-file corruption on the next boot.
func (j *fileJournal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.leading {
		j.flushed.Wait()
	}
	if j.f == nil {
		return ErrClosed
	}
	if j.err != nil {
		// Never truncate through a poisoned journal: the file is the
		// only surviving copy of the acked prefix.
		return j.err
	}
	// Batches staged without a waiter (Store.UpdateNoWait) are written
	// out first, in staging order, so the truncation discards them only
	// together with everything else the checkpoint covers.
	for len(j.staged) > 0 {
		j.flushGroupLocked()
	}
	if j.err != nil {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	j.bin.Store(false)
	if j.binNext {
		// writeGenerationMarker syncs the marker itself in sync mode.
		return j.writeGenerationMarker()
	}
	if j.sync {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("db: sync compacted journal: %w", err)
		}
	}
	return nil
}

func (j *fileJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.leading {
		j.flushed.Wait()
	}
	if j.f == nil {
		return nil
	}
	if j.err != nil {
		// Poisoned: do NOT flush buffered bytes on the way out. The
		// batches behind them were never acked, and pushing them at the
		// file now could make a later replay see writes the store
		// reported failed. Staged-but-unflushed tickets fail with the
		// sticky error so their waiters unblock.
		for _, t := range j.staged {
			t.done = true
			t.err = j.err
			encBufPool.Put(t.e)
			t.e = nil
		}
		j.staged = nil
		err := j.f.Close()
		j.f = nil
		j.flushed.Broadcast()
		return err
	}
	// Flush anything staged but not yet waited on.
	for len(j.staged) > 0 {
		j.flushGroupLocked()
	}
	err1 := j.w.Flush()
	err2 := j.f.Close()
	j.f = nil
	j.flushed.Broadcast()
	if err1 != nil {
		return err1
	}
	return err2
}

// memJournal is an in-memory journal, used by tests to exercise the
// replay path and crash simulations without touching disk.
type memJournal struct {
	mu      sync.Mutex
	batches [][]Entry
	failAt  int // if >0, AppendBatch fails once the batch count reaches it
	closed  bool
}

// NewMemJournal returns an in-memory journal.
func NewMemJournal() Journal { return &memJournal{failAt: -1} }

// NewFailingMemJournal returns a journal whose AppendBatch starts failing
// after n successful batches — for fault-injection tests of commit
// atomicity.
func NewFailingMemJournal(n int) Journal { return &memJournal{failAt: n} }

func (j *memJournal) Append(e Entry) error { return j.AppendBatch([]Entry{e}) }

func (j *memJournal) AppendBatch(entries []Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.failAt >= 0 && len(j.batches) >= j.failAt {
		return errors.New("db: injected journal failure")
	}
	cp := make([]Entry, len(entries))
	copy(cp, entries)
	j.batches = append(j.batches, cp)
	return nil
}

// Stage implements GroupJournal: the batch's position is fixed (and,
// memory being the medium, already "durable") at stage time, so wait
// returns immediately. Giving the in-memory journal Stage parity with
// fileJournal keeps volatile benchmarks and replica tests on the exact
// commit code path durable stores use — including the clean-abort
// semantics of a stage-time failure.
func (j *memJournal) Stage(entries []Entry) (func() error, error) {
	if err := j.AppendBatch(entries); err != nil {
		return nil, err
	}
	return waitNoop, nil
}

func (j *memJournal) Replay(apply func(Entry) error) error {
	j.mu.Lock()
	batches := j.batches
	j.mu.Unlock()
	for _, b := range batches {
		for _, e := range b {
			if err := apply(e); err != nil {
				return err
			}
		}
	}
	return nil
}

func (j *memJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	return nil
}
