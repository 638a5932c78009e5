package sim

// DegreeState names the structure a world keeps for its external tests:
// "none", "ledger" or "pg".
var DegreeState = degreeState
