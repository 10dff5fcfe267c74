package middleware

// Diamond exposes the test diamond to the external recovery tests.
var Diamond = diamond
