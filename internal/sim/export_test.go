package sim

// NextLossDraw takes the next draw of n's loss stream, so an external test
// can tell whether two networks' streams stand at the same point.
func NextLossDraw(n *Network) uint64 { return n.loss.Uint64() }
