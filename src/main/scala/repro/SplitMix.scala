package repro

/** The one SplitMix64-style stateless mix, of `seed ^ a·γ ^ b·c`, behind the
  * §3.2.1 hash family (`AdditiveHasher`) and both trace generators.
  */
private[repro] object SplitMix {
  def mix(seed: Long, a: Long, b: Long = 0L): Long = {
    var z = seed ^ (a * 0x9e3779b97f4a7c15L) ^ (b * 0xc2b2ae3d27d4eb4fL)
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }
}
