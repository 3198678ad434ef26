package repro.spindex

import org.scalatest.funsuite.AnyFunSuite

/** Structural invariants of the sp-index substrate (§2.1, §5.2). */
class SpIndexSpec extends AnyFunSuite {

  test("morton/unmorton are inverse bijections on a 64x64 grid") {
    val seen = collection.mutable.Set.empty[Int]
    for (x <- 0 until 64; y <- 0 until 64) {
      val z = SpIndex.morton(x, y)
      assert(seen.add(z), s"duplicate morton code $z")
      assert(SpIndex.unmorton(z) == ((x, y)))
    }
    assert(seen.min == 0 && seen.max == 64 * 64 - 1)
  }

  test("morton neighbors stay close: adjacent codes are adjacent cells on avg") {
    // Z-order locality: consecutive ranks should be within a small L1 radius
    // most of the time (this is what makes coarse units spatial blocks).
    val dists = (0 until 255).map { z =>
      val (x1, y1) = SpIndex.unmorton(z)
      val (x2, y2) = SpIndex.unmorton(z + 1)
      math.abs(x1 - x2) + math.abs(y1 - y2)
    }
    assert(dists.count(_ == 1) >= 128, "most consecutive Morton ranks should be grid-adjacent")
  }

  test("powerLawSizes sums to total and every part is >= 1") {
    for (total <- Seq(16, 100, 4096); parts <- Seq(1, 4, 16); b <- Seq(0.0, 1.0, 2.0)) {
      val s = SpIndex.powerLawSizes(total, parts, b)
      assert(s.length == parts)
      assert(s.sum == total, s"total=$total parts=$parts b=$b")
      assert(s.forall(_ >= 1))
    }
  }

  test("powerLawSizes with b=2 is increasing in index (denser later units)") {
    val s = SpIndex.powerLawSizes(4096, 8, 2.0)
    assert(s.zip(s.tail).forall { case (a, b) => a <= b }, s.mkString(","))
  }

  test("powerLawSizes with b=0 is near-uniform") {
    val s = SpIndex.powerLawSizes(4096, 8, 0.0)
    assert(s.max - s.min <= 1)
  }

  // Structural invariants across a grid of configurations.
  for (side <- Seq(8, 16, 64); m <- Seq(1, 2, 4); a <- Seq(1.0, 2.0); b <- Seq(0.0, 2.0)) {
    val label = s"side=$side m=$m a=$a b=$b"

    test(s"[$label] widths follow Eq. 11, are non-decreasing, and W_m = nBase") {
      val sp = SpIndex.build(side, m, a, b)
      assert(sp.widths.length == m)
      assert(sp.widths(m - 1) == side * side)
      assert(sp.widths.zip(sp.widths.tail).forall { case (w1, w2) => w1 <= w2 })
      for (l <- 1 until m) {
        val expected = math.max(1, math.round(side * side * math.pow(l, a) / math.pow(m, a)).toInt)
        assert(sp.widths(l - 1) == math.min(expected, sp.widths(l)), s"level $l")
      }
    }

    test(s"[$label] every level partitions all base units; ids are dense") {
      val sp = SpIndex.build(side, m, a, b)
      for (l <- 1 to m) {
        val ancs = sp.anc(l - 1)
        assert(ancs.length == sp.nBase)
        assert(ancs.toSet == (0 until sp.widths(l - 1)).toSet, s"level $l unit ids not dense")
      }
    }

    test(s"[$label] units nest: same level-(l+1) unit implies same level-l unit") {
      val sp = SpIndex.build(side, m, a, b)
      for (l <- 1 until m) {
        val byChild = (0 until sp.nBase).groupBy(sp.ancestor(l + 1, _))
        byChild.foreach { case (child, locs) =>
          assert(locs.map(sp.ancestor(l, _)).distinct.size == 1,
            s"level-${l + 1} unit $child spans multiple level-$l parents")
        }
      }
    }

    test(s"[$label] units are contiguous Morton runs (spatial blocks)") {
      val sp = SpIndex.build(side, m, a, b)
      for (l <- 1 to m) {
        val ancs = sp.anc(l - 1)
        // Each unit's base locs form one contiguous range of Morton ranks.
        (0 until sp.widths(l - 1)).foreach { u =>
          val locs = (0 until sp.nBase).filter(ancs(_) == u)
          assert(locs.max - locs.min + 1 == locs.size, s"level $l unit $u not contiguous")
        }
      }
    }
  }

  test("level m ancestors are the identity") {
    val sp = SpIndex.build(16, 3, 2.0, 1.0)
    assert((0 until sp.nBase).forall(loc => sp.ancestor(sp.m, loc) == loc))
  }

  test("unitBaseSizes agrees with explicit counting and sums to nBase") {
    val sp = SpIndex.build(16, 4, 2.0, 2.0)
    for (l <- 1 to sp.m) {
      val sz = sp.unitBaseSizes(l)
      assert(sz.sum == sp.nBase)
      assert(sz.forall(_ >= 1))
    }
  }

  test("unitBaseSizes at intermediate levels reflect density exponent b") {
    val sp = SpIndex.build(64, 2, 1.0, 2.0)
    val sz = sp.unitBaseSizes(1)
    // b=2: last unit should be much larger than the first.
    assert(sz.last > sz.head * 2, s"head=${sz.head} last=${sz.last}")
  }

  test("parentOf is consistent with ancestor arrays") {
    val sp = SpIndex.build(8, 3, 1.5, 1.0)
    for (loc <- 0 until sp.nBase; l <- 2 to sp.m)
      assert(sp.parentOf(l, sp.ancestor(l, loc)) == sp.ancestor(l - 1, loc))
  }

  test("build rejects non-power-of-two sides") {
    intercept[IllegalArgumentException](SpIndex.build(10, 2, 1.0, 1.0))
    intercept[IllegalArgumentException](SpIndex.build(0, 2, 1.0, 1.0))
  }

  test("build rejects sides whose unit ids overflow the 24-bit cell encoding") {
    // side 8192 has 2^26 base units; their ids would spill into the time
    // field of Cells.encode, so cells of different time steps would collide.
    val e = intercept[IllegalArgumentException](SpIndex.build(8192, 4, 2, 2))
    assert(e.getMessage.contains("24-bit"), e.getMessage)
  }

  test("m=1 degenerates to base units only") {
    val sp = SpIndex.build(8, 1, 2.0, 2.0)
    assert(sp.widths.toSeq == Seq(64))
    assert((0 until 64).forall(loc => sp.ancestor(1, loc) == loc))
  }

  test("paper example hierarchy: side=2, m=2, a=1, b=0 gives {L1,L2}|{L3,L4}") {
    val sp = repro.PaperExample.sp
    assert(sp.widths.toSeq == Seq(2, 4))
    assert(sp.ancestor(1, 0) == sp.ancestor(1, 1))
    assert(sp.ancestor(1, 2) == sp.ancestor(1, 3))
    assert(sp.ancestor(1, 0) != sp.ancestor(1, 2))
  }
}
