package micropay

// TableSpool is the intake spool table.
const TableSpool = tableSpool

// SessionCount reports how many chains have a cached intake session.
func (p *Pipeline) SessionCount() int {
	p.sessMu.Lock()
	defer p.sessMu.Unlock()
	return len(p.sessions)
}
