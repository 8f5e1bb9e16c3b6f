// Unit tests for the XML document model, parser, and writer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xml/xml.h"

namespace vmp::xml {
namespace {

TEST(XmlBuildTest, ElementBasics) {
  Element e("vm");
  e.set_attr("id", "vm-1");
  e.set_text("hello");
  EXPECT_EQ(e.name(), "vm");
  EXPECT_TRUE(e.has_attr("id"));
  EXPECT_EQ(e.attr("id"), "vm-1");
  EXPECT_FALSE(e.has_attr("missing"));
  EXPECT_EQ(e.attr("missing"), "");
  EXPECT_EQ(e.text(), "hello");
}

TEST(XmlBuildTest, ChildNavigation) {
  Element root("root");
  root.add_child("a").set_text("1");
  root.add_child("b").set_text("2");
  root.add_child("a").set_text("3");
  ASSERT_NE(root.child("a"), nullptr);
  EXPECT_EQ(root.child("a")->text(), "1");
  EXPECT_EQ(root.child_text("b"), "2");
  EXPECT_EQ(root.children_named("a").size(), 2u);
  EXPECT_EQ(root.child("zzz"), nullptr);
}

TEST(XmlBuildTest, AttrIntAndDouble) {
  Element e("x");
  e.set_attr("n", "42");
  e.set_attr("d", "2.5");
  e.set_attr("bad", "zz");
  EXPECT_EQ(e.attr_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(e.attr_double("d", 0), 2.5);
  EXPECT_EQ(e.attr_int("bad", 7), 7);
  EXPECT_EQ(e.attr_int("absent", 9), 9);
}

TEST(XmlEscapeTest, EscapesSpecials) {
  std::string out = "pre:";
  append_escaped(&out, "a<b>&\"'");
  EXPECT_EQ(out, "pre:a&lt;b&gt;&amp;&quot;&apos;");
}

TEST(XmlParseTest, SimpleElement) {
  auto doc = parse("<vm id=\"vm-1\">text</vm>");
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  EXPECT_EQ(doc.value()->name(), "vm");
  EXPECT_EQ(doc.value()->attr("id"), "vm-1");
  EXPECT_EQ(doc.value()->text(), "text");
}

TEST(XmlParseTest, SelfClosing) {
  auto doc = parse("<edge from=\"A\" to=\"B\"/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->attr("from"), "A");
  EXPECT_EQ(doc.value()->attr("to"), "B");
}

TEST(XmlParseTest, Nesting) {
  auto doc = parse("<a><b><c/></b><b/></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->children().size(), 2u);
  EXPECT_NE(doc.value()->child("b")->child("c"), nullptr);
}

TEST(XmlParseTest, EntityDecoding) {
  auto doc = parse("<x a=\"&lt;&amp;&gt;\">&quot;hi&apos;</x>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->attr("a"), "<&>");
  EXPECT_EQ(doc.value()->text(), "\"hi'");
}

TEST(XmlParseTest, NumericEntities) {
  auto doc = parse("<x>&#65;&#x42;</x>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->text(), "AB");
}

TEST(XmlParseTest, Utf8NumericEntity) {
  auto doc = parse("<x>&#233;</x>");  // é
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->text(), "\xc3\xa9");
}

TEST(XmlParseTest, CdataPreservedVerbatim) {
  auto doc = parse("<s><![CDATA[if (a < b && c) { }]]></s>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->text(), "if (a < b && c) { }");
}

TEST(XmlParseTest, CommentsSkipped) {
  auto doc = parse("<!-- header --><a><!-- inner -->x<b/></a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->text(), "x");
  EXPECT_EQ(doc.value()->children().size(), 1u);
}

TEST(XmlParseTest, XmlDeclarationTolerated) {
  auto doc = parse("<?xml version=\"1.0\"?>\n<a/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->name(), "a");
}

TEST(XmlParseTest, WhitespaceAroundDocument) {
  auto doc = parse("  \n <a/>  \n");
  ASSERT_TRUE(doc.ok());
}

TEST(XmlParseTest, SingleQuotedAttributes) {
  auto doc = parse("<a k='v'/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->attr("k"), "v");
}

// -- Malformed inputs ---------------------------------------------------------

TEST(XmlParseErrorTest, MismatchedTags) {
  EXPECT_FALSE(parse("<a></b>").ok());
}

TEST(XmlParseErrorTest, UnterminatedElement) {
  EXPECT_FALSE(parse("<a><b></b>").ok());
}

TEST(XmlParseErrorTest, DuplicateAttribute) {
  EXPECT_FALSE(parse("<a k=\"1\" k=\"2\"/>").ok());
}

TEST(XmlParseErrorTest, UnknownEntity) {
  EXPECT_FALSE(parse("<a>&bogus;</a>").ok());
}

TEST(XmlParseErrorTest, TrailingContent) {
  EXPECT_FALSE(parse("<a/><b/>").ok());
}

TEST(XmlParseErrorTest, BareText) {
  EXPECT_FALSE(parse("just text").ok());
}

TEST(XmlParseErrorTest, UnterminatedAttribute) {
  EXPECT_FALSE(parse("<a k=\"v/>").ok());
}

TEST(XmlParseErrorTest, MissingAttrValue) {
  EXPECT_FALSE(parse("<a k/>").ok());
}

TEST(XmlParseErrorTest, EmptyInput) {
  EXPECT_FALSE(parse("").ok());
}

TEST(XmlParseErrorTest, BadNumericEntity) {
  EXPECT_FALSE(parse("<a>&#xZZ;</a>").ok());
  EXPECT_FALSE(parse("<a>&#1114112;</a>").ok());  // beyond U+10FFFF
}

// A numeric character reference is &#[0-9]+; or &#x[0-9a-fA-F]+; naming a
// character: each malformed form below is rejected, in text and in an
// attribute value, with the same message.
void expect_bad_char_ref(const std::string& ref) {
  for (const std::string& doc :
       {"<a>x" + ref + "y</a>", "<a k=\"x" + ref + "y\"/>"}) {
    auto parsed = parse(doc);
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_NE(parsed.error().message().find("bad numeric character reference"),
              std::string::npos)
        << doc << ": " << parsed.error().message();
  }
}

TEST(XmlParseErrorTest, EmptyDecimalCharRef) { expect_bad_char_ref("&#;"); }

TEST(XmlParseErrorTest, EmptyHexCharRef) { expect_bad_char_ref("&#x;"); }

TEST(XmlParseErrorTest, SignedCharRef) { expect_bad_char_ref("&#+65;"); }

TEST(XmlParseErrorTest, SpacedCharRef) { expect_bad_char_ref("&# 65;"); }

TEST(XmlParseErrorTest, NulCharRef) {
  expect_bad_char_ref("&#0;");
  expect_bad_char_ref("&#x0;");
}

TEST(XmlParseErrorTest, SurrogateCharRef) {
  expect_bad_char_ref("&#xD800;");
  expect_bad_char_ref("&#xDFFF;");
  expect_bad_char_ref("&#55296;");  // U+D800 in decimal
}

TEST(XmlParseTest, CharRefsAroundSurrogates) {
  auto doc = parse("<x k=\"&#xD7FF;\">&#xE000;&#x10FFFF;&#0065;</x>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->attr("k"), "\xed\x9f\xbf");
  EXPECT_EQ(doc.value()->text(), "\xee\x80\x80\xf4\x8f\xbf\xbf" "A");
}

// -- Round trips ----------------------------------------------------------------

TEST(XmlRoundTripTest, SerializeParseDeepEqual) {
  Element root("create-request");
  root.set_attr("id", "req-1");
  Element& dag = root.add_child("dag");
  Element& action = dag.add_child("action");
  action.set_attr("id", "A");
  action.set_attr("op", "install-os");
  action.add_child("param").set_attr("name", "distro");
  action.child("param")->set_text("redhat-8.0 & \"friends\" <beta>");
  dag.add_child("edge");

  auto parsed = parse(root.to_string());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(root.deep_equal(*parsed.value()));
}

TEST(XmlRoundTripTest, CompactForm) {
  Element root("a");
  root.add_child("b").set_text("x");
  EXPECT_EQ(root.to_compact_string(), "<a><b>x</b></a>");
  auto parsed = parse(root.to_compact_string());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(root.deep_equal(*parsed.value()));
}

TEST(XmlRoundTripTest, CloneIsDeepAndIndependent) {
  Element root("a");
  root.add_child("b").set_attr("k", "v");
  auto copy = root.clone();
  ASSERT_TRUE(copy.deep_equal(root));
  copy.child("b")->set_attr("k", "other");
  EXPECT_FALSE(copy.deep_equal(root));
  EXPECT_EQ(root.child("b")->attr("k"), "v");
}

TEST(XmlRoundTripTest, SpecialCharactersInAttributes) {
  Element root("m");
  root.set_attr("expr", "a < b && \"x\"");
  auto parsed = parse(root.to_string());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value()->attr("expr"), "a < b && \"x\"");
}

// -- Flat attribute store -------------------------------------------------------

TEST(XmlAttrStoreTest, SetAttrOverwritesExistingKey) {
  Element e("m");
  e.set_attr("k", "one");
  e.set_attr("k", "two");
  EXPECT_EQ(e.attrs().size(), 1u);
  EXPECT_EQ(e.attr("k"), "two");
  EXPECT_FALSE(e.add_attr("k", "three"));
  EXPECT_EQ(e.attr("k"), "two");
  EXPECT_EQ(e.to_compact_string(), "<m k=\"two\"/>");
}

TEST(XmlAttrStoreTest, OutOfOrderInsertsRenderSorted) {
  Element e("m");
  e.set_attr("zeta", "3");
  e.set_attr("alpha", "1");
  e.set_attr("mid", "2");
  e.set_attr("beta", "4");
  EXPECT_EQ(e.to_compact_string(),
            "<m alpha=\"1\" beta=\"4\" mid=\"2\" zeta=\"3\"/>");
  EXPECT_EQ(e.attr("mid"), "2");
  EXPECT_FALSE(e.has_attr("gamma"));
  EXPECT_EQ(e.attr("gamma"), "");
}

TEST(XmlAttrStoreTest, ParserStillRejectsDuplicateOutOfOrder) {
  EXPECT_FALSE(parse("<m b=\"1\" a=\"2\" b=\"3\"/>").ok());
  auto ok = parse("<m b=\"1\" a=\"2\"/>");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()->to_compact_string(), "<m a=\"2\" b=\"1\"/>");
}

// -- Whitespace rule ------------------------------------------------------------

TEST(XmlWhitespaceTest, IndentationBetweenChildrenIsDropped) {
  auto parsed = parse("<a>\n  <b/>\n  <c>\n    <d/>\n  </c>\n</a>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value()->text(), "");
  EXPECT_EQ(parsed.value()->child("c")->text(), "");
}

TEST(XmlWhitespaceTest, LeafTextStaysByteExact) {
  auto parsed = parse("<a><b>  </b><c> x\n </c></a>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value()->child_text("b"), "  ");
  EXPECT_EQ(parsed.value()->child_text("c"), " x\n ");
}

TEST(XmlWhitespaceTest, MixedContentKeepsItsWhitespace) {
  auto parsed = parse("<a> x <b/> y </a>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value()->text(), " x  y ");
}

TEST(XmlWhitespaceTest, RenderParseRenderIsAFixedPoint) {
  Element root("a");
  root.set_attr("k", "v & w");
  Element& b = root.add_child("b");
  b.add_child("c").set_text("leaf <text>");
  b.add_child("blank").set_text(" \n ");
  root.add_child("d");
  const std::string once = root.to_string();
  std::string again = once;
  for (int hop = 0; hop < 3; ++hop) {
    auto parsed = parse(again);
    ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
    again = parsed.value()->to_string();
    EXPECT_EQ(again, once) << "after " << hop + 1 << " re-renders";
  }
}

TEST(XmlRoundTripTest, ReleaseChildrenEmptiesTheParent) {
  Element root("a");
  root.add_child("b");
  root.add_child("c");
  auto children = root.release_children();
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[1].name(), "c");
  EXPECT_TRUE(root.children().empty());
}

TEST(XmlWhitespaceTest, TextSplitByMarkupJoinsItsRuns) {
  // A leaf's runs around a comment join; a parent's blank runs, decoded
  // or CDATA, are layout; one real run keeps every run of its element.
  auto leaf = parse("<a> <!-- c --> </a>");
  ASSERT_TRUE(leaf.ok());
  EXPECT_EQ(leaf.value()->text(), "  ");
  auto decoded_blank = parse("<a>&#32;<b/>\n</a>");
  ASSERT_TRUE(decoded_blank.ok());
  EXPECT_EQ(decoded_blank.value()->text(), "");
  auto cdata_blank = parse("<a><![CDATA[ ]]><b/></a>");
  ASSERT_TRUE(cdata_blank.ok());
  EXPECT_EQ(cdata_blank.value()->text(), "");
  auto mixed = parse("<a><![CDATA[ ]]><b> in </b>&amp;z<c/>\n</a>");
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed.value()->text(), " &z\n");
  EXPECT_EQ(mixed.value()->child_text("b"), " in ");
}

// -- Reference rule (xml.h) -----------------------------------------------------

TEST(XmlReferenceRuleTest, DescendantsStayPutWhileSiblingsAreAdded) {
  // Adding children may move a parent's earlier children, but not what
  // those children hold.
  Element root("root");
  Element& first = root.add_child("first");
  Element& grandchild = first.add_child("grandchild");
  grandchild.set_attr("k", "v");
  const Element* held = &grandchild;
  for (int i = 0; i < 100; ++i) root.add_child("sibling").set_text("x");
  ASSERT_EQ(root.children().size(), 101u);
  EXPECT_EQ(&root.children().front().children().front(), held);
  EXPECT_EQ(held->attr("k"), "v");
  // The child itself is reached afresh.
  EXPECT_EQ(root.child("first")->child("grandchild"), held);
}

TEST(XmlReferenceRuleTest, ReservedChildrenDoNotMove) {
  Element root("root");
  root.reserve_children(3);
  Element& a = root.add_child("a");
  Element& b = root.add_child("b");
  Element& c = root.add_child("c");
  a.set_text("1");
  b.set_text("2");
  c.set_text("3");
  EXPECT_EQ(root.to_compact_string(),
            "<root><a>1</a><b>2</b><c>3</c></root>");
}

TEST(XmlReferenceRuleTest, BuildEachChildBeforeItsNextSibling) {
  // The supported pattern: a reference is used only until the next
  // add_child on its parent; after that the child is looked up again.
  const auto numbered = [](char prefix, int i) {
    std::string out(1, prefix);
    out += std::to_string(i);
    return out;
  };
  Element root("dag");
  for (int i = 0; i < 40; ++i) {
    Element& action = root.add_child("action");
    action.set_attr("id", numbered('n', i));
    action.add_child("param").set_text(numbered('p', i));
  }
  ASSERT_EQ(root.children().size(), 40u);
  for (int i = 0; i < 40; ++i) {
    const Element& action = root.children()[static_cast<std::size_t>(i)];
    EXPECT_EQ(action.attr("id"), numbered('n', i));
    EXPECT_EQ(action.child_text("param"), numbered('p', i));
  }
}

// -- Clone / adopt / release on by-value children ------------------------------

/// A document with attributes, entities, mixed content and nesting.
constexpr const char* kRichDoc =
    "<r a=\"1\" b=\"x &amp; y\">lead<k id=\"1\"><l>leaf &lt;1&gt;</l>"
    "<m/></k><k id=\"2\"><n><o p=\"q\"/></n></k>tail</r>";

TEST(XmlTreeOpsTest, CloneRendersAndComparesEqual) {
  auto doc = parse(kRichDoc);
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  const Element& original = *doc.value();
  Element copy = original.clone();
  EXPECT_TRUE(copy.deep_equal(original));
  EXPECT_EQ(copy.to_string(), original.to_string());
  // Deep: editing the copy's grandchild leaves the original alone.
  copy.child("k")->child("l")->set_text("changed");
  EXPECT_FALSE(copy.deep_equal(original));
  EXPECT_EQ(original.child("k")->child_text("l"), "leaf <1>");
  // A moved element is the same tree.
  Element moved = std::move(copy);
  EXPECT_EQ(moved.child("k")->child_text("l"), "changed");
}

TEST(XmlTreeOpsTest, ReleaseThenAdoptRestoresTheTree) {
  auto doc = parse(kRichDoc);
  ASSERT_TRUE(doc.ok());
  Element& root = *doc.value();
  const std::string before = root.to_string();
  std::vector<Element> children = root.release_children();
  ASSERT_EQ(children.size(), 2u);
  EXPECT_TRUE(root.children().empty());
  for (Element& child : children) root.adopt_child(std::move(child));
  EXPECT_EQ(root.to_string(), before);
  auto reparsed = parse(before);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(root.deep_equal(*reparsed.value()));
}

TEST(XmlTreeOpsTest, AdoptedClonesRenderLikeTheirSource) {
  auto doc = parse(kRichDoc);
  ASSERT_TRUE(doc.ok());
  Element built("r");
  built.set_attr("a", "1");
  built.set_attr("b", "x & y");
  built.set_text("leadtail");
  for (const Element& child : doc.value()->children()) {
    built.adopt_child(child.clone());
  }
  EXPECT_TRUE(built.deep_equal(*doc.value()));
  EXPECT_EQ(built.to_compact_string(), doc.value()->to_compact_string());
}

TEST(XmlRenderTest, RenderWrappedMatchesABuiltElement) {
  Element content("ignored");
  content.set_attr("dropped", "x");
  content.add_child("b").set_attr("k", "<v>");
  Element built("env");
  built.set_attr("a", "1");
  built.set_attr("z", "\"2\"");
  const AttrView attrs[] = {{"a", "1"}, {"z", "\"2\""}};
  EXPECT_EQ(render_wrapped("env", attrs, Element("empty")), built.to_string());
  built.adopt_child(content.child("b")->clone());
  EXPECT_EQ(render_wrapped("env", attrs, content), built.to_string());
}

}  // namespace
}  // namespace vmp::xml
