package sim

// DegreeState names what a world keeps for its external tests: "none" or
// "ledger".
var DegreeState = degreeState
