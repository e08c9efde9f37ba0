package eval

// ViewKey exposes the view-cache key to the external tests.
var ViewKey = viewKey
