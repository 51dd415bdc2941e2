package dynnet

// CmpLinks exports cmpLinks to the external tests, which import
// internal/oracle and so cannot be in package dynnet.
var CmpLinks = cmpLinks
