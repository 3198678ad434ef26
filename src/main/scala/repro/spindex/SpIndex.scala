package repro.spindex

/** Spatial hierarchy (sp-index) over a square grid of base spatial units.
  *
  * Levels are labeled 1 (coarsest) to `m` (finest = base units), as in the
  * paper (§2.1). The area is a `side × side` grid of base units; base unit
  * ids are Morton (Z-order) ranks so that consecutive ids are spatially
  * close, and every coarser unit is a contiguous run of Morton ranks — i.e.
  * a compact spatial block.
  *
  * Structure follows §5.2 of the paper:
  *  - width of level `l`: `W_l = Q · l^a` with `Q = nBase / m^a` (Eq. 11),
  *    clamped to be non-decreasing in `l` and `W_m = nBase`;
  *  - relative node sizes at a level follow a power law `∝ i^b` (Eq. 12),
  *    rescaled so sizes sum to the number of base units and every parent
  *    gets at least one child (see DESIGN.md §3 for the deviation note).
  *
  * @param m      number of levels (level m = base units)
  * @param side   grid side length (power of two, for Morton encoding)
  * @param widths widths(l-1) = number of spatial units at level l
  * @param anc    anc(l-1)(baseLoc) = id of the level-l ancestor unit of a
  *               base unit; anc(m-1) is the identity
  */
final class SpIndex(
    val m: Int,
    val side: Int,
    val widths: Array[Int],
    val anc: Array[Array[Int]],
) extends Serializable {

  /** Number of base spatial units. */
  def nBase: Int = side * side

  /** Ancestor unit id of base unit `baseLoc` at level `level` (1-based). */
  def ancestor(level: Int, baseLoc: Int): Int = anc(level - 1)(baseLoc)

  /** Number of base units contained in each unit of `level`. */
  def unitBaseSizes(level: Int): Array[Int] = {
    val sz = new Array[Int](widths(level - 1))
    val a = anc(level - 1)
    var i = 0
    while (i < a.length) { sz(a(i)) += 1; i += 1 }
    sz
  }

  /** Parent (level `level-1`) unit id of unit `unit` at `level` (level ≥ 2).
    * Derived from any base descendant; well-defined because units nest.
    */
  def parentOf(level: Int, unit: Int): Int = {
    val a = anc(level - 1)
    var i = 0
    while (i < a.length) {
      if (a(i) == unit) return anc(level - 2)(i)
      i += 1
    }
    throw new IllegalArgumentException(s"unit $unit absent at level $level")
  }
}

object SpIndex {

  /** Interleave the low 16 bits of x and y into a Morton code. */
  def morton(x: Int, y: Int): Int = spread(x) | (spread(y) << 1)

  private def spread(v0: Int): Int = {
    var v = v0 & 0xffff
    v = (v | (v << 8)) & 0x00ff00ff
    v = (v | (v << 4)) & 0x0f0f0f0f
    v = (v | (v << 2)) & 0x33333333
    v = (v | (v << 1)) & 0x55555555
    v
  }

  /** Inverse of [[morton]]: (x, y) of a Morton rank. */
  def unmorton(z: Int): (Int, Int) = (compact(z), compact(z >> 1))

  private def compact(v0: Int): Int = {
    var v = v0 & 0x55555555
    v = (v | (v >> 1)) & 0x33333333
    v = (v | (v >> 2)) & 0x0f0f0f0f
    v = (v | (v >> 4)) & 0x00ff00ff
    v = (v | (v >> 8)) & 0x0000ffff
    v
  }

  /** Power-law sizes `∝ (i+1)^b` rescaled to sum to `total`, each ≥ 1.
    * Largest-remainder apportionment; assumes parts ≤ total.
    */
  private[spindex] def powerLawSizes(total: Int, parts: Int, b: Double): Array[Int] = {
    require(parts >= 1 && parts <= total, s"parts=$parts total=$total")
    val w = Array.tabulate(parts)(i => math.pow(i + 1.0, b))
    val sumW = w.sum
    val raw = w.map(_ / sumW * total)
    val out = raw.map(r => math.max(1, r.toInt))
    var diff = total - out.sum
    // Distribute leftovers (or claw back excess) against fractional parts,
    // never dropping a part below one base unit.
    val order = raw.zipWithIndex.sortBy { case (r, _) => -(r - math.floor(r)) }.map(_._2)
    var idx = 0
    while (diff != 0) {
      val i = order(idx % parts)
      if (diff > 0) { out(i) += 1; diff -= 1 }
      else if (out(i) > 1) { out(i) -= 1; diff += 1 }
      idx += 1
    }
    out
  }

  /** Build an sp-index per the hierarchical model of §5.2.
    *
    * @param side grid side, a power of two of at most 4096 (so the
    *             `side²` base unit ids fit `Cells.UnitBits`)
    * @param m    number of levels ≥ 1
    * @param a    width power-law exponent (Eq. 11)
    * @param b    relative density exponent (Eq. 12)
    */
  def build(side: Int, m: Int, a: Double, b: Double): SpIndex = {
    require(side <= 4096,
      s"side=$side: base unit ids must fit the 24-bit unit field of the cell encoding (side <= 4096)")
    require(side >= 2 && (side & (side - 1)) == 0, s"side=$side must be a power of two")
    require(m >= 1)
    val nBase = side * side
    val widths = new Array[Int](m)
    widths(m - 1) = nBase
    var l = m - 1
    while (l >= 1) {
      val w = math.max(1, math.round(nBase * math.pow(l, a) / math.pow(m, a)).toInt)
      widths(l - 1) = math.min(w, widths(l)) // non-decreasing in level
      l -= 1
    }

    val anc = Array.ofDim[Array[Int]](m)
    anc(m - 1) = Array.tabulate(nBase)(identity)
    // childUnit(j) = unit id at level l+1 of the j-th child in id order;
    // childSize(j) = its base-unit count. Units are contiguous Morton runs,
    // so cutting children in id order yields contiguous parents.
    var childSizes = Array.fill(nBase)(1)
    l = m - 1
    while (l >= 1) {
      val parts = widths(l - 1)
      val nChildren = childSizes.length
      require(parts <= nChildren, s"level $l: width $parts > children $nChildren")
      val targets = powerLawSizes(nBase, parts, b)
      val parentOfChild = new Array[Int](nChildren)
      val parentSizes = new Array[Int](parts)
      var p = 0
      var acc = 0
      var c = 0
      while (c < nChildren) {
        val remainingParents = parts - p - 1
        val remainingChildren = nChildren - c
        // Close the current parent once its target is met, unless the
        // later parents would starve (each parent needs ≥ 1 child).
        if (p < parts - 1 && acc >= targets(p) && remainingChildren > remainingParents) {
          p += 1; acc = 0
        }
        if (remainingChildren == remainingParents && acc > 0) { p += 1; acc = 0 }
        parentOfChild(c) = p
        acc += childSizes(c)
        parentSizes(p) += childSizes(c)
        c += 1
      }
      require(p == parts - 1, s"level $l: only ${p + 1} of $parts parents populated")
      anc(l - 1) = Array.tabulate(nBase)(loc => parentOfChild(anc(l)(loc)))
      childSizes = parentSizes
      l -= 1
    }
    new SpIndex(m, side, widths, anc)
  }
}
