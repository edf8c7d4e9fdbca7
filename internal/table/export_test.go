package table

// SizeRowsReference exposes the per-candidate replay oracle to the
// external tests that need packages importing this one.
var SizeRowsReference = sizeRowsReference
