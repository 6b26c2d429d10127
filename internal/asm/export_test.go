package asm

// DiffTwoPass exports diffTwoPass to the external tests.
var DiffTwoPass = diffTwoPass
