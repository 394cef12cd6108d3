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
