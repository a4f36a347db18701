"""Exact arithmetic kernel, imported from its submodules (this package
exports nothing): Laurent polynomials over Q (`laurent`), polynomials
(`polys`), rational functions and their series (`ratfunc`), matrices
(`matrix`), the Smith normal form over Z (`snf`), factorization
(`factor`), residue fields (`residue`) and certified roots (`roots`).
Modules over Q[z, z^-1] need no Smith form: `laurent_forms` reduces them
to linear algebra over Q.  No float enters any arithmetic path; floats
appear only in reporting helpers (approximate angles).
"""
