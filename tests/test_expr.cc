/**
 * @file
 * Unit and property tests for the symbolic index-expression algebra.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "kernel/expr.hh"

namespace ladm
{
namespace
{

using namespace dsl;

TEST(Expr, ZeroByDefault)
{
    Expr e;
    EXPECT_TRUE(e.isZero());
    EXPECT_EQ(e.toString(), "0");
    EXPECT_EQ(e.eval(makeBinding()), 0);
}

TEST(Expr, ConstantLift)
{
    Expr e = 42;
    EXPECT_FALSE(e.isZero());
    EXPECT_EQ(e.eval(makeBinding()), 42);
    EXPECT_EQ(Expr(0), Expr());
}

TEST(Expr, VariableEval)
{
    Binding b = makeBinding(/*tx=*/3, /*ty=*/5, /*bx=*/7, /*by=*/11,
                            /*bdx=*/13, /*bdy=*/17, /*gdx=*/19,
                            /*gdy=*/23, /*m=*/29);
    EXPECT_EQ(Expr(tx).eval(b), 3);
    EXPECT_EQ(Expr(ty).eval(b), 5);
    EXPECT_EQ(Expr(bx).eval(b), 7);
    EXPECT_EQ(Expr(by).eval(b), 11);
    EXPECT_EQ(Expr(bdx).eval(b), 13);
    EXPECT_EQ(Expr(bdy).eval(b), 17);
    EXPECT_EQ(Expr(gdx).eval(b), 19);
    EXPECT_EQ(Expr(gdy).eval(b), 23);
    EXPECT_EQ(Expr(m).eval(b), 29);
}

TEST(Expr, AdditionCombinesLikeTerms)
{
    Expr e = tx + tx + tx;
    Binding b = makeBinding(5);
    EXPECT_EQ(e.eval(b), 15);
    EXPECT_EQ(e.terms().size(), 1u);
}

TEST(Expr, SubtractionCancels)
{
    Expr e = bx * bdx + tx - bx * bdx;
    EXPECT_EQ(e, Expr(tx));
    EXPECT_TRUE((e - tx).isZero());
}

TEST(Expr, MultiplicationDistributes)
{
    // (bx + 1) * (bx + 2) = bx^2 + 3bx + 2
    Expr e = (bx + 1) * (bx + 2);
    for (int64_t v : {0, 1, 2, 5, 10}) {
        Binding b = makeBinding(0, 0, v);
        EXPECT_EQ(e.eval(b), v * v + 3 * v + 2);
    }
}

TEST(Expr, MixedScalarOps)
{
    Expr e = 2 * bx + 3;
    EXPECT_EQ(e.eval(makeBinding(0, 0, 10)), 23);
    Expr f = 5 - tx;
    EXPECT_EQ(f.eval(makeBinding(2)), 3);
}

TEST(Expr, DependsOn)
{
    Expr e = (by * 16 + ty) * (gdx * bdx) + m * 16 + tx;
    EXPECT_TRUE(e.dependsOn(Var::By));
    EXPECT_TRUE(e.dependsOn(Var::Ty));
    EXPECT_TRUE(e.dependsOn(Var::GDx));
    EXPECT_TRUE(e.dependsOn(Var::M));
    EXPECT_TRUE(e.dependsOn(Var::Tx));
    EXPECT_FALSE(e.dependsOn(Var::Bx));
    EXPECT_FALSE(e.dependsOn(Var::GDy));
    EXPECT_FALSE(e.dependsOn(Var::DataDep));
}

TEST(Expr, LoopVariantSplit)
{
    Expr e = bx * bdx + tx + m * gdx * bdx;
    Expr variant = e.loopVariant();
    Expr invariant = e.loopInvariant();
    EXPECT_EQ(variant + invariant, e);
    EXPECT_TRUE(variant.dependsOn(Var::M));
    EXPECT_FALSE(invariant.dependsOn(Var::M));
    EXPECT_EQ(invariant, bx * bdx + tx);
}

TEST(Expr, DivByM)
{
    Expr e = m * gdx * bdx + 2 * m;
    Expr q = e.divByM();
    EXPECT_EQ(q, gdx * bdx + 2);
}

TEST(ExprDeathTest, DivByMRequiresM)
{
    Expr e = bx + m;
    EXPECT_DEATH((void)e.divByM(), "divByM");
}

TEST(Expr, IsExactlyM)
{
    EXPECT_TRUE(Expr(m).isExactlyM());
    EXPECT_FALSE((2 * m).isExactlyM());
    EXPECT_FALSE((m * m).isExactlyM());
    EXPECT_FALSE((m + 1).isExactlyM());
    EXPECT_FALSE((m * gdx).isExactlyM());
    EXPECT_FALSE(Expr(tx).isExactlyM());
    EXPECT_FALSE(Expr().isExactlyM());
}

TEST(Expr, DegreeIn)
{
    Expr e = bx * bx * 3 + bx * ty + 7;
    EXPECT_EQ(e.degreeIn(Var::Bx), 2);
    EXPECT_EQ(e.degreeIn(Var::Ty), 1);
    EXPECT_EQ(e.degreeIn(Var::M), 0);
}

TEST(Expr, DataDepPoisonsEval)
{
    Expr e = Expr::dataDep() + m;
    EXPECT_TRUE(e.dependsOn(Var::DataDep));
    EXPECT_DEATH((void)e.eval(makeBinding()), "data-dependent");
}

TEST(Expr, DataDepVariantSplit)
{
    // The CSR edge walk: col[rowptr[v] + m].
    Expr e = Expr::dataDep() + m;
    EXPECT_TRUE(e.loopVariant().isExactlyM());
    EXPECT_TRUE(e.loopInvariant().dependsOn(Var::DataDep));
}

TEST(Expr, ToStringReadable)
{
    EXPECT_EQ(Expr(tx).toString(), "tx");
    EXPECT_EQ((2 * bx).toString(), "2*bx");
    EXPECT_EQ((bx * bdx + tx).toString(), "bx*bdx + tx");
}

TEST(Expr, EqualityIsStructural)
{
    EXPECT_EQ(bx + tx, tx + bx);
    EXPECT_EQ(bx * bdx, bdx * bx);
    EXPECT_NE(Expr(bx), Expr(by));
}

/** Property: ring axioms hold under evaluation for random expressions. */
class ExprPropertyTest : public ::testing::TestWithParam<uint64_t>
{
  protected:
    Expr
    randomExpr(Rng &rng, int max_terms)
    {
        Expr e;
        const int terms = 1 + static_cast<int>(rng.nextBounded(max_terms));
        for (int i = 0; i < terms; ++i) {
            Expr t = static_cast<int64_t>(rng.nextBounded(9)) - 4;
            const int vars = static_cast<int>(rng.nextBounded(3));
            for (int v = 0; v < vars; ++v) {
                // Exclude DataDep so the result stays evaluable.
                t = t * Expr(static_cast<Var>(rng.nextBounded(9)));
            }
            e = e + t;
        }
        return e;
    }

    Binding
    randomBinding(Rng &rng)
    {
        return makeBinding(static_cast<int64_t>(rng.nextBounded(7)),
                           static_cast<int64_t>(rng.nextBounded(7)),
                           static_cast<int64_t>(rng.nextBounded(7)),
                           static_cast<int64_t>(rng.nextBounded(7)),
                           1 + static_cast<int64_t>(rng.nextBounded(6)),
                           1 + static_cast<int64_t>(rng.nextBounded(6)),
                           1 + static_cast<int64_t>(rng.nextBounded(6)),
                           1 + static_cast<int64_t>(rng.nextBounded(6)),
                           static_cast<int64_t>(rng.nextBounded(7)));
    }
};

TEST_P(ExprPropertyTest, RingAxiomsUnderEval)
{
    Rng rng(GetParam());
    const Expr a = randomExpr(rng, 4);
    const Expr b = randomExpr(rng, 4);
    const Expr c = randomExpr(rng, 3);
    const Binding v = randomBinding(rng);

    EXPECT_EQ((a + b).eval(v), a.eval(v) + b.eval(v));
    EXPECT_EQ((a - b).eval(v), a.eval(v) - b.eval(v));
    EXPECT_EQ((a * b).eval(v), a.eval(v) * b.eval(v));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    EXPECT_TRUE((a - a).isZero());
}

TEST_P(ExprPropertyTest, VariantInvariantPartition)
{
    Rng rng(GetParam() ^ 0xabcd);
    const Expr e = randomExpr(rng, 6);
    EXPECT_EQ(e.loopVariant() + e.loopInvariant(), e);
    EXPECT_FALSE(e.loopInvariant().dependsOn(Var::M));
    // Every variant term references m, so divByM round-trips.
    if (!e.loopVariant().isZero()) {
        EXPECT_EQ(e.loopVariant().divByM() * m, e.loopVariant());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprPropertyTest,
                         ::testing::Range<uint64_t>(0, 32));

} // namespace
} // namespace ladm
