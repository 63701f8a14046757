package cardpi

// ReferenceInterval exports the per-query reference composition (see
// referenceInterval) to the external bit-identity tests.
var ReferenceInterval = referenceInterval
