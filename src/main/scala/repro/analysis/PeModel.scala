package repro.analysis

/** Analytical pruning-effectiveness model of §5.3 (Eqs. 16–19).
  *
  * Predicts PE (Definition 5.1, lower = better pruning) from: the hash
  * range `R` (the paper's `n × t`), the typical trace length `|seq^m|`, the
  * number of hash functions `n_h`, and `n_c` — the minimal number of shared
  * ST-cells implied by the expected k-th degree `d_e`.
  *
  * Probabilities are computed with the numerically stable closed forms
  * `P(min ≥ i) = ((R-i)/R)^len` (equivalent to Eq. 16's sum) and log-space
  * binomial tails for Eq. 18.
  */
object PeModel {

  /** P(sig[u] ≥ i) for a signature over `len` iid uniform cell hashes. */
  def pMinGe(rangeR: Int, len: Int, i: Int): Double =
    if (i <= 0) 1.0
    else if (i >= rangeR) 0.0
    else math.pow((rangeR - i).toDouble / rangeR, len)

  /** CDF of a single signature value: P(sig[u] ≤ i). */
  def minCdf(rangeR: Int, len: Int, i: Int): Double = 1.0 - pMinGe(rangeR, len, i + 1)

  /** CDF of the routed (max over n_h) signature value: Eq. 17's max law. */
  def routedCdf(rangeR: Int, len: Int, nh: Int, i: Int): Double =
    math.pow(minCdf(rangeR, len, i), nh)

  /** log-binomial tail P(X ≥ nc), X ~ Binomial(len, p) (Eq. 18). */
  def binomTailGe(len: Int, p: Double, nc: Int): Double = {
    if (nc <= 0) return 1.0
    if (p <= 0.0) return 0.0
    if (p >= 1.0) return if (nc <= len) 1.0 else 0.0
    var lf = 0.0
    val logFac = new Array[Double](len + 1)
    var i = 1
    while (i <= len) { lf += math.log(i); logFac(i) = lf; i += 1 }
    var s = 0.0
    var x = nc
    while (x <= len) {
      val logC = logFac(len) - logFac(x) - logFac(len - x)
      s += math.exp(logC + x * math.log(p) + (len - x) * math.log1p(-p))
      x += 1
    }
    math.min(1.0, s)
  }

  val Buckets = 200

  /** Predicted PE (Eq. 19): sum over `Buckets` routed-value buckets of the
    * bucket mass times the survival probability of a leaf in that bucket.
    *
    * @param rangeR hash range
    * @param len    typical number of base ST-cells per entity
    * @param nh     number of hash functions
    * @param nc     minimal shared-cell count for degree ≥ d_e
    */
  def predictPe(rangeR: Int, len: Int, nh: Int, nc: Int): Double = {
    require(rangeR > 1 && len >= 1 && nh >= 1 && nc >= 1)
    var pe = 0.0
    var j = 0
    while (j < Buckets) {
      val lo = (j.toLong * rangeR / Buckets).toInt
      val hi = ((j + 1).toLong * rangeR / Buckets).toInt - 1
      val mass = routedCdf(rangeR, len, nh, hi) -
        (if (j == 0) 0.0 else routedCdf(rangeR, len, nh, lo - 1))
      if (mass > 0) {
        // Survival (Eq. 18): ≥ nc query cells hash above the bucket bound,
        // i.e. escape the pruned set implied by SIG_N[r] ≈ hi.
        val p = (rangeR - 1 - hi).toDouble / (rangeR - 1)
        pe += mass * binomTailGe(len, p, nc)
      }
      j += 1
    }
    math.max(0.0, math.min(1.0, pe))
  }

  /** Probability that a query cell *disjoint from a node's traces*
    * survives pruning by the node's `coords` largest signature
    * coordinates, for members with `len` cells: the k-th largest
    * coordinate sits near the `k/n_h` quantile of the min-of-`len`
    * distribution, `R·(1−(k/n_h)^(1/len))`, so the survival product
    * telescopes to `Π_k (k/n_h)^(1/len)`.
    */
  def survivalProb(len: Int, nh: Int, coords: Int): Double = {
    require(len >= 1 && nh >= 1 && coords >= 1)
    val c = math.min(coords, nh)
    math.exp((1 to c).map(k => math.log(k.toDouble / nh)).sum / len)
  }

  /** §5.3-style prediction extended to multi-coordinate pruning, driven by
    * a sampled overlap distribution (the paper similarly feeds its model
    * with simulation-estimated overlaps and d_e): a sampled candidate with
    * `memberLen` cells and `overlap` shared cells survives when its shared
    * cells plus the binomially-surviving disjoint query cells reach n_c.
    *
    * @param qLen   query trace length
    * @param pairs  sampled (memberLen, overlap-with-query) pairs
    */
  def predictPeSampled(qLen: Int, nh: Int, coords: Int, nc: Int, pairs: Iterable[(Int, Int)]): Double = {
    require(pairs.nonEmpty)
    val survive = pairs.map { case (memberLen, overlap) =>
      if (overlap >= nc) 1.0
      else {
        val p = survivalProb(math.max(1, memberLen), nh, coords)
        binomTailGe(math.max(0, qLen - overlap), p, nc - overlap)
      }
    }
    survive.sum / pairs.size
  }

  /** Invert the ADM to the minimal shared-cell count `n_c` implied by an
    * expected k-th degree `d_e` (§5.3). Approximation: both entities hold
    * ~`len` cells at every level and share `x` at every level, giving
    * `d(x) = Σ_l l^u (x / 2len)^v / max`; solve for x.
    */
  def ncFromDegree(de: Double, len: Int, m: Int, u: Double, v: Double): Int = {
    val lw = (1 to m).map(l => math.pow(l, u)).sum
    val max = (1 to m).map(l => math.pow(l, u) * math.pow(0.5, v)).sum
    val x = 2.0 * len * math.pow(de * max / lw, 1.0 / v)
    math.max(1, math.ceil(x).toInt)
  }
}
