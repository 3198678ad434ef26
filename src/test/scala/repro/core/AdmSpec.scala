package repro.core

import java.util.SplittableRandom

import org.scalatest.funsuite.AnyFunSuite

/** The association degree measures (§2.2, §6.1, App. D): range, the two
  * monotonicity constraints of the generic family, and closed-form checks.
  * Property-style checks run over deterministic random samples.
  */
class AdmSpec extends AnyFunSuite {

  private val m = 4
  private val cases = 300

  private def randomStats(rng: SplittableRandom): (Array[Int], Array[Int], Array[Int]) = {
    val sa = Array.fill(m)(rng.nextInt(50) + 1)
    val sb = Array.fill(m)(rng.nextInt(50) + 1)
    val ov = sa.zip(sb).map { case (a, b) => rng.nextInt(math.min(a, b) + 1) }
    (ov, sa, sb)
  }

  private val measures: Seq[(String, Measure)] = Seq(
    "ADM(1,1)" -> AdmMeasure(m, 1, 1),
    "ADM(2,0.5)" -> AdmMeasure(m, 2, 0.5),
    "ADM(0.5,2)" -> AdmMeasure(m, 0.5, 2),
    "Dice" -> DiceMeasure(m),
    "Jaccard" -> JaccardMeasure(m),
    "Cosine" -> CosineMeasure(m),
  )

  for ((name, d) <- measures) {
    test(s"[$name] degree is within [0, 1] and zero overlap gives zero") {
      val rng = new SplittableRandom(1)
      (0 until cases).foreach { _ =>
        val (ov, sa, sb) = randomStats(rng)
        val x = d.degree(ov, sa, sb)
        assert(x >= 0.0 && x <= 1.0 + 1e-12, s"$x")
        assert(d.degree(Array.fill(m)(0), sa, sb) == 0.0)
      }
    }

    test(s"[$name] identical traces give degree 1") {
      val rng = new SplittableRandom(2)
      (0 until cases).foreach { _ =>
        val s = Array.fill(m)(rng.nextInt(50) + 1)
        assert(math.abs(d.degree(s, s, s) - 1.0) < 1e-9)
      }
    }

    test(s"[$name] monotone: growing overlap cannot lower the degree (G constraint 2)") {
      val rng = new SplittableRandom(3)
      (0 until cases).foreach { _ =>
        val (ov, sa, sb) = randomStats(rng)
        val l = rng.nextInt(m)
        if (ov(l) < math.min(sa(l), sb(l))) {
          val ov2 = ov.clone; ov2(l) += 1
          assert(d.degree(ov2, sa, sb) >= d.degree(ov, sa, sb) - 1e-12)
        }
      }
    }

    test(s"[$name] monotone: a larger candidate trace cannot raise the degree (G constraint 2)") {
      val rng = new SplittableRandom(4)
      (0 until cases).foreach { _ =>
        val (ov, sa, sb) = randomStats(rng)
        val l = rng.nextInt(m)
        val sb2 = sb.clone; sb2(l) += 1
        assert(d.degree(ov, sa, sb2) <= d.degree(ov, sa, sb) + 1e-12)
      }
    }

    test(s"[$name] the Theorem 4.1 artificial entity dominates any consistent candidate") {
      // UB = degree(surv, surv, qSizes) must be >= degree(ov, sb, qSizes)
      // for any candidate whose overlap is bounded by the surviving counts.
      val rng = new SplittableRandom(5)
      (0 until cases).foreach { _ =>
        val (ov, sa, sb) = randomStats(rng)
        // sa plays the query; surviving counts are >= the true overlap.
        val surv = ov.indices.map(i => math.min(sa(i), ov(i) + rng.nextInt(3))).toArray
        val bounded = ov.indices.map(i => math.min(ov(i), surv(i))).toArray
        val ub = d.degree(surv, surv, sa)
        val actual = d.degree(bounded, sb, sa)
        assert(ub >= actual - 1e-12, s"ub=$ub actual=$actual")
      }
    }
  }

  test("ADM(u=1, v=1) is exactly level-weighted Dice (Appendix D)") {
    val rng = new SplittableRandom(6)
    (0 until cases).foreach { _ =>
      val (ov, sa, sb) = randomStats(rng)
      val adm = AdmMeasure(m, 1, 1).degree(ov, sa, sb)
      val dice = DiceMeasure(m).degree(ov, sa, sb)
      assert(math.abs(adm - dice) < 1e-12)
    }
  }

  test("ADM closed form on a hand example") {
    // m=2, u=1, v=1: d = (1*(o1/(a1+b1)) + 2*(o2/(a2+b2))) / (1*0.5 + 2*0.5)
    val d = AdmMeasure(2, 1, 1)
    val got = d.degree(Array(1, 1), Array(2, 2), Array(2, 2))
    assert(math.abs(got - (1.0 * 0.25 + 2.0 * 0.25) / 1.5) < 1e-12)
  }

  test("Example 4.1: d(e_a, e_c) = 0.5 under the 0.1/0.9 Dice measure") {
    val pe = repro.PaperExample
    val store = TraceStore.fromLocal(pe.traces, pe.sp)
    assert(math.abs(store.degree(pe.measure41, pe.eA, pe.eC) - 0.5) < 1e-12)
  }

  test("varying v preserves single-dominant-level ranking order (§6.1)") {
    val base = Array.fill(m)(10)
    val d1 = AdmMeasure(m, 1, 1)
    val d2 = AdmMeasure(m, 1, 1.5)
    val scored = (1 to 9).map { o =>
      val ov = Array.fill(m)(o)
      (d1.degree(ov, base, base), d2.degree(ov, base, base))
    }
    assert(scored.map(_._1).sorted == scored.map(_._1))
    assert(scored.map(_._2).sorted == scored.map(_._2))
  }

  test("larger u weights fine levels more") {
    val ovFine = Array(0, 0, 0, 5)
    val ovCoarse = Array(5, 0, 0, 0)
    val sa = Array.fill(m)(10)
    val sb = Array.fill(m)(10)
    val lowU = AdmMeasure(m, 0.5, 1)
    val highU = AdmMeasure(m, 3, 1)
    val ratioLow = lowU.degree(ovFine, sa, sb) / lowU.degree(ovCoarse, sa, sb)
    val ratioHigh = highU.degree(ovFine, sa, sb) / highU.degree(ovCoarse, sa, sb)
    assert(ratioHigh > ratioLow)
  }

  test("degree is symmetric in the two entities for all measures") {
    val rng = new SplittableRandom(7)
    for ((name, d) <- measures; _ <- 0 until 50) {
      val (ov, sa, sb) = randomStats(rng)
      assert(math.abs(d.degree(ov, sa, sb) - d.degree(ov, sb, sa)) < 1e-12, name)
    }
  }

  test("ADM at v = 1 equals the math.pow formula bit for bit") {
    val rng = new SplittableRandom(8)
    for (u <- Seq(0.5, 1.0, 2.0); _ <- 0 until cases) {
      val (ov, sa, sb) = randomStats(rng)
      val lw = Array.tabulate(m)(l => math.pow(l + 1.0, u))
      val max = lw.map(_ * math.pow(0.5, 1.0)).sum
      var s = 0.0
      for (l <- 0 until m if ov(l) > 0) s += lw(l) * math.pow(ov(l).toDouble / (sa(l) + sb(l)), 1.0)
      val got = AdmMeasure(m, u, 1).degree(ov, sa, sb)
      assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(s / max))
    }
  }

  test("ADM rejects v <= 0, where the Theorem 4.1 bound fails") {
    for (v <- Seq(0.0, -1.0)) {
      val e = intercept[IllegalArgumentException](AdmMeasure(m, 1, v))
      assert(e.getMessage.contains("Theorem 4.1"))
    }
  }
}
