package usage

// TableSpool is the intake spool table; DecodeSpoolRow is the
// pipeline's spool codec.
const TableSpool = tableSpool

var DecodeSpoolRow = decodeSpoolRow
