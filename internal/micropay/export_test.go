package micropay

// TableSpool is the intake spool table.
const TableSpool = tableSpool

// SpoolRow is a decoded spool row; DecodeSpoolRow is the pipeline's
// spool codec.
type SpoolRow = spoolRow

var DecodeSpoolRow = decodeSpoolRow

// SessionCount reports how many chains have a cached intake session.
func (p *Pipeline) SessionCount() int {
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	return len(p.sessions)
}

// EncodeSpoolRow is the pipeline's spool codec; LegacySpoolKey names a
// row the way the pipeline keyed them before one row per chain.
var (
	EncodeSpoolRow = encodeSpoolRow
	LegacySpoolKey = legacySpoolKey
)

// EncodeCombined is a chain row's value as written before the head split:
// the commitment row carrying its own state.
func (r *ChainRow) EncodeCombined() ([]byte, error) { return r.encode() }
