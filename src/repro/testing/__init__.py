"""Test support that lives beside the library: the cross-path oracle
(:mod:`repro.testing.oracle`).  No runtime module imports this
package."""
