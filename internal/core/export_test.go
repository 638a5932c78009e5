package core

// VerifyPacing exposes the anchor re-verification counters to the external
// tests that render a Proc's fingerprint by hand.
func (p *Proc) VerifyPacing() (gap, since int) { return p.verifyGap, p.sinceVerify }
