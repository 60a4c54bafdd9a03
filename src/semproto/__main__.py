import sys

# The CLI needs no OpenSSL: make `import _hashlib` fail (a None entry in
# sys.modules), so `hashlib` and `hmac`, which `numpy.random` reaches
# through `secrets`, use CPython's built-in hashes, with the same digests,
# and no CLI process or forked ablation worker maps libcrypto (3.3 MB
# resident). It lives here, in the process entry, so a program that
# imports semproto keeps its own hashlib.
sys.modules.setdefault("_hashlib", None)

from .entry import main  # noqa: E402  (after the block above)

if __name__ == "__main__":
    sys.exit(main())
