"""commlab: commutator calculus for words, finite carriers, braids, spheres.

Submodules:

* kernels   - letter reduction, Artin action, strand deletion and
              permutation-set loops on plain data
* words     - freely reduced words, conjugates, commutators, left-normed
              commutators
* brackets  - bracket arrangements (binary commutator shapes), read only by
              the benchmark tracer
* sampling  - seeded streams of symmetric commutator generators
* magnus    - truncated Magnus expansion, lower-central membership
* finite    - brute-force subgroup identities in permutation groups
* braids    - braid words, Artin action, purity, Brunnian checks
* homotopy  - sphere-group membership, homotopy-group certificates
* reports   - JSON run reports, written atomically, and their text form
* cli       - the ``commlab`` command line tool
"""

# The kernels have one implementation; the constant stays for benchmark metadata.
KERNEL_BACKEND = "python"

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
