package jobs

// Fixture exposes the package's test corpus to the external replay
// contract test, which also drives the tournament's journal.
var Fixture = fixture
