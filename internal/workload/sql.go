package workload

// QueryText returns the StreamSQL text of a Table 2 query, as the base
// station would receive it (Appendix B). Query 0's random id pairing and
// Query 3's geometric Dst predicate are expressed through placeholders the
// text cannot capture exactly — Q0's pairing is drawn at runtime, and Dst
// is evaluated by the region matcher — so their texts carry the remaining
// clauses; Q1 and Q2 are complete.
func QueryText(name string) (string, bool) {
	switch name {
	case "Q0":
		return `SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.u = T.u`, true
	case "Q1":
		return `SELECT S.id, T.id, S.local_time
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < 25 AND hash(S.u) % 2 = 0
AND T.id > 50 AND hash(T.u) % 2 = 0
AND S.x = T.y + 5 AND S.u = T.u`, true
	case "Q2":
		return `SELECT S.id, T.id
FROM S, T [windowsize=1 sampleinterval=100]
WHERE S.rid = 0 AND T.rid = 3
AND S.cid = T.cid AND S.id % 4 = T.id % 4
AND S.u = T.u`, true
	case "Q3":
		return `SELECT S.id, T.id
FROM S, T [windowsize=3 sampleinterval=100]
WHERE S.id < T.id AND abs(S.v - T.v) > 1000`, true
	default:
		return "", false
	}
}

type errUnknownQuery string

func (e errUnknownQuery) Error() string { return "workload: unknown query " + string(e) }
