/**
 * @file
 * Tests for InlineFunction, the non-allocating callback type the
 * event kernel dispatches through: value semantics (move-only,
 * destruction, reset) and correct invocation with arguments and
 * return values.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "sim/inline_function.hh"

using namespace virtsim;

TEST(InlineFunction, DefaultConstructedIsEmpty)
{
    InlineFunction<void()> f;
    EXPECT_FALSE(static_cast<bool>(f));
    InlineFunction<void()> g = nullptr;
    EXPECT_FALSE(static_cast<bool>(g));
}

TEST(InlineFunction, InvokesCaptureWithArgsAndReturn)
{
    int base = 100;
    InlineFunction<int(int, int)> add = [&base](int a, int b) {
        return base + a + b;
    };
    ASSERT_TRUE(static_cast<bool>(add));
    EXPECT_EQ(add(2, 3), 105);
    base = 0;
    EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFunction, MoveTransfersOwnership)
{
    int calls = 0;
    InlineFunction<void()> a = [&calls] { ++calls; };
    InlineFunction<void()> b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b();
    EXPECT_EQ(calls, 1);

    InlineFunction<void()> c;
    c = std::move(b);
    EXPECT_FALSE(static_cast<bool>(b));
    c();
    EXPECT_EQ(calls, 2);
}

TEST(InlineFunction, DestructionReleasesCapturedResources)
{
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    {
        InlineFunction<int()> f = [t = std::move(token)] { return *t; };
        EXPECT_EQ(f(), 7);
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired()) << "capture leaked on destruction";
}

TEST(InlineFunction, ResetReleasesAndEmpties)
{
    auto token = std::make_shared<int>(1);
    std::weak_ptr<int> watch = token;
    InlineFunction<int()> f = [t = std::move(token)] { return *t; };
    f.reset();
    EXPECT_FALSE(static_cast<bool>(f));
    EXPECT_TRUE(watch.expired());
}

TEST(InlineFunction, MoveAssignOverwritesExistingCapture)
{
    auto old_token = std::make_shared<int>(1);
    std::weak_ptr<int> old_watch = old_token;
    InlineFunction<int()> f = [t = std::move(old_token)] { return *t; };
    f = InlineFunction<int()>([] { return 42; });
    EXPECT_TRUE(old_watch.expired()) << "old capture must be destroyed";
    EXPECT_EQ(f(), 42);
}

TEST(InlineFunction, FullCapacityCaptureFits)
{
    // A capture exactly at the inline budget must compile and work;
    // anything larger is rejected at compile time by static_assert
    // (cannot be expressed as a runtime test).
    struct Big
    {
        std::byte pad[inlineFunctionCapacity - sizeof(int)];
        int tag;
    };
    Big big{};
    big.tag = 9;
    InlineFunction<int()> f = [big] { return big.tag; };
    static_assert(sizeof(Big) == inlineFunctionCapacity);
    EXPECT_EQ(f(), 9);
}

namespace {

/** Counts how often it is copied and moved. */
struct CopyMoveCounter
{
    CopyMoveCounter(int *copies, int *moves) : copies(copies), moves(moves)
    {
    }
    CopyMoveCounter(const CopyMoveCounter &o) noexcept
        : copies(o.copies), moves(o.moves)
    {
        ++*copies;
    }
    CopyMoveCounter(CopyMoveCounter &&o) noexcept
        : copies(o.copies), moves(o.moves)
    {
        ++*moves;
    }
    int *copies;
    int *moves;
};

} // namespace

TEST(InlineFunction, AssignConstructsInPlace)
{
    int copies = 0, moves = 0;
    auto lambda = [c = CopyMoveCounter(&copies, &moves)] {
        return *c.copies;
    };
    ASSERT_EQ(copies + moves, 0);

    // assign() builds the callable in the buffer: one copy of the
    // lambda and no move.
    InlineFunction<int()> f = [] { return -1; };
    f.assign(lambda);
    EXPECT_EQ(copies, 1);
    EXPECT_EQ(moves, 0);
    EXPECT_EQ(f(), 1);

    // Assigning through a temporary InlineFunction relocates the
    // capture once more.
    copies = moves = 0;
    f = InlineFunction<int()>(lambda);
    EXPECT_EQ(copies, 1);
    EXPECT_EQ(moves, 1);

    // Given an InlineFunction, assign() moves it in.
    copies = moves = 0;
    InlineFunction<int()> g;
    g.assign(std::move(f));
    EXPECT_FALSE(static_cast<bool>(f));
    EXPECT_EQ(copies, 0);
    EXPECT_EQ(moves, 1);
    EXPECT_EQ(g(), 0);
}

TEST(InlineFunctionDeath, CallingEmptyPanics)
{
    InlineFunction<void()> f;
    EXPECT_DEATH(f(), "empty InlineFunction");
}
