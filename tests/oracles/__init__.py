"""Reference implementations that the shipped code is tested against.

Each oracle is the straightforward, per-object form of an optimized path
in ``src/``: slow, but simple enough to trust. Tests assert the optimized
path reproduces it exactly.
"""
